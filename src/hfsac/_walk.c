/* The package's compiled kernels, built and loaded by `hfsac.prefix.kernel`:
 * `splitmix` and `draw_block`, the keystream of `hfsac.crypto.SplitMix64`
 * and of every walk; `walk_block`, the steps of every walk; and the stages
 * of the codec build: `explore`, the state exploration of
 * `hfsac.coder.build_full_fsm`, `reduce_rows` and `block_bits`, the
 * mute-edge reduction of `hfsac.reducer.reduce_machine`, with each row's
 * output, and its input blocks, `huffman_lengths` and `kraft_words`, the
 * two table stages of `hfsac.huffman.attach_tables`, which weigh each row
 * by its output length, and `words_in_order` and `window_index`, the
 * window index of a table's words.  Every kernel writes only into arrays
 * its caller allocates, and none calls malloc.  The kernels that read a
 * reduced machine take its columns as `hfsac.reducer.ReducedMachine`
 * checks them when it is made: a row count per state, every block of at
 * least 1 bit and every next state one of the states.
 *
 * Every bit array is packed MSB first: the streams, the emitted bits and
 * a table's words, which lie in row order, each from the bit after the
 * last one's.  All are read by `window`, and a table's bytes end in two
 * zero bytes for its 16-bit read.
 */
#include <stdint.h>
#include <string.h>

#define GOLDEN 0x9E3779B97F4A7C15u

/* the splitmix output of counter value z (Steele, Lea & Flood, "Fast
 * splittable pseudorandom number generators", OOPSLA 2014): a substream's
 * draw k after state s is mix(s + k * GOLDEN), wrapping modulo 2**64 */
static inline uint64_t mix(uint64_t z)
{
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9u;
    z = (z ^ z >> 27) * 0x94D049BB133111EBu;
    return z ^ z >> 31;
}

uint64_t splitmix(uint64_t z)
{
    return mix(z);
}

/* A block of m steps' keystream from the jump, target and swap substream
 * states `streams`, which it advances: step k jumps when its jump draw's
 * top byte is below q, as a walk's `first` step always does, to its next
 * target draw modulo `states` (targets[k], else -1); draws[k] is its swap
 * draw.  Without `targets` it draws the swap substream alone. */
void draw_block(
    uint64_t *streams, int64_t q, int64_t states, int first, int64_t m,
    int64_t *targets, uint64_t *draws)
{
    for (int64_t k = 0; k < m; k++) {
        if (targets) {
            int jump = (mix(streams[0] += GOLDEN) >> 56) < (uint64_t)q || (first && !k);
            targets[k] = jump ? (int64_t)(mix(streams[1] += GOLDEN) % (uint64_t)states) : -1;
        }
        draws[k] = mix(streams[2] += GOLDEN);
    }
}

/* the bits of a window at or past `swap` (relative to the window's first
 * bit) complemented.  The shift is clamped to 8, which gives 0, since a
 * shift by the type's width or more is undefined in C.  The clamp keeps
 * its conditional moves off the window's dependency chain: a select on the
 * window put one there, and the loop without draws ran ~12 % slower (gcc
 * 12, -O2, 2 vCPUs) */
static inline int swap_mask(int64_t swap)
{
    return 0xFF >> (swap < 0 ? 0 : swap > 8 ? 8 : swap);
}

/* the 8 bits from bit p: a big-endian 16-bit read of the byte holding p
 * and the next, shifted right by 8 - p % 8 */
static inline int window(const uint8_t *bytes, int64_t p)
{
    const uint8_t *b = bytes + (p >> 3);
    return ((b[0] << 8 | b[1]) >> (8 - (p & 7))) & 0xFF;
}

/* copies the n bits from bit `from` of `src` to bit `to` of `dst`, the
 * bits at or past `swap` (counted from the first) complemented: a `dst`
 * byte keeps its bits before `to`, and is written zero past the last
 * bit, the byte after it too */
static inline void copy_bits(
    const uint8_t *src, int64_t from, uint8_t *dst, int64_t to, int64_t n, int64_t swap)
{
    src += from >> 3, dst += to >> 3, from &= 7, to &= 7; /* the bytes move, the bits stay */
    for (int64_t j = 0; j < n; j += 8, src++, dst++) {
        int keep = n - j < 8 ? (int)(n - j) : 8;
        unsigned x = (unsigned)((window(src, from) ^ swap_mask(swap - j)) >> (8 - keep));
        x <<= 16 - keep - to;
        dst[0] = (uint8_t)((dst[0] & 0xFF00 >> to) | x >> 8);
        dst[1] = (uint8_t)x;
    }
}

/* The steps of `hfsac.prefix.walk`, up to m of a keystream block, over the
 * window index of the matched words, from the packed bytes `bytes` (MSB
 * first), zero past `end` for a longest word and two bytes.  `frame` holds
 * (bit, state, input bits fed, emitted bit, steps), in and out.
 *
 * A step jumps to targets[k] where it is not negative, and looks its
 * window, the 8 bits from its first bit, up at (state << 8) | window, and
 * a link (see `window_index`) up with the window 8 bits further on.  With
 * `draws`, its swap position is draws[k] % moduli[state], written back to
 * draws[k]: a `decode` step matches its word complemented from there on,
 * every window XOR-ed with the swap mask of its offset, and any other
 * step emits it so.  The step writes its row to rows[k], feeds fed[row]
 * input bits and moves to next_state[row]; with `bits` it emits the row's
 * word, the emit_len[row] bits from bit offsets[row] of `bits`, to `out`,
 * a decode's cut at `limit` fed bits: an `out` byte keeps its bits before
 * the emitted bit, and is written zero past its last.
 *
 * Returns 0 after the step that feeds `limit` bits or the m-th, or -1 with
 * the frame at a step that starts past `end`, matches nothing or, in a
 * decode, runs past `end`. */
int walk_block(
    const int32_t *index, const int32_t *lengths, const int32_t *next_state,
    const int32_t *fed, const uint64_t *moduli, int decode, const uint8_t *bits,
    const int64_t *offsets, const int32_t *emit_len, const uint8_t *bytes, int64_t end,
    const int64_t *targets, uint64_t *draws,
    int64_t m, int64_t limit, uint8_t *out, int64_t *rows, int64_t *frame)
{
    int64_t pos = frame[0], state = frame[1], done = frame[2], at = frame[3], k;
    for (k = 0; k < m && done < limit; k++) {
        if (targets[k] >= 0)
            state = targets[k];
        /* past every word: nothing is complemented */
        int64_t swap = draws ? (int64_t)(draws[k] % moduli[state]) : INT64_MAX;
        const int64_t match_swap = decode ? swap : INT64_MAX;
        const int64_t emit_swap = decode ? INT64_MAX : swap;
        if (draws)
            draws[k] = (uint64_t)swap;
        int32_t entry = -1;
        if (pos <= end)
            entry = index[state << 8 | (window(bytes, pos) ^ swap_mask(match_swap))];
        for (int64_t off = 8; entry < -1; off += 8) {
            int32_t link = -2 - entry;
            int w = window(bytes, pos + off) ^ swap_mask(match_swap - off);
            entry = index[(link >> 3) + (w >> (link & 7))];
        }
        if (entry < 0 || (decode && pos + lengths[entry] > end))
            break;
        if (bits) {
            int64_t n = emit_len[entry];
            n = decode && n > limit - done ? limit - done : n;
            copy_bits(bits, offsets[entry], out, at, n, emit_swap);
            at += n;
        }
        rows[k] = entry;
        pos += lengths[entry];
        done += fed[entry];
        state = next_state[entry];
    }
    frame[0] = pos, frame[1] = state, frame[2] = done, frame[3] = at, frame[4] += k;
    return k < m && done < limit ? -1 : 0; /* a step failed: the loop broke */
}

/* the slot of state (lo, hi, fo) in `slots`: the one holding it, or the
 * empty one (-1) where it goes.  The key is low, then high (n + 1 bits),
 * then follow (4 bits), hashed by its top `bits` bits times 2**64 / phi;
 * collisions probe linearly */
static inline int64_t slot(
    const int32_t *slots, int64_t n_slots, int64_t bits, const int64_t *low,
    const int64_t *high, const int64_t *follow, int64_t n, int64_t lo,
    int64_t hi, int64_t fo)
{
    uint64_t key = ((uint64_t)lo << (n + 1) | (uint64_t)hi) << 4 | (uint64_t)fo;
    int64_t i = (int64_t)((key * 0x9E3779B97F4A7C15u) >> (64 - bits));
    for (int32_t s; (s = slots[i]) >= 0; i = (i + 1) & (n_slots - 1))
        if (low[s] == lo && high[s] == hi && follow[s] == fo)
            break;
    return i;
}

/* The breadth-first exploration of `hfsac.coder.build_full_fsm`: every
 * canonical state of the (n, p0, f_max) coder from state 0, numbered in
 * order of first occurrence, into columns that the caller owns.  States
 * [0, found) are in low, high and follow, and the edges of states
 * [0, explored) in target, emit_len and emit_val, edge 2*s + symbol, its
 * emitted bits as (length, value); `progress` holds (explored, found), in
 * and out, and the queue is the states from `explored` to `found`.  The
 * columns hold `capacity` states.  `slots`, 2**bits of them and more than
 * capacity, index the states found; they are rebuilt from the columns on
 * every call.
 *
 * Returns 0 once every state found is explored, 1 when the next state's
 * two edges might find more states than the columns hold (the caller
 * grows them and calls again), and -1 when a new state would be number
 * `ceiling` or more. */
int explore(
    int64_t n, int64_t p0, int64_t f_max, int64_t ceiling, int64_t *low,
    int64_t *high, int64_t *follow, int32_t *target, int32_t *emit_len,
    int64_t *emit_val, int64_t capacity, int32_t *slots, int64_t bits,
    int64_t *progress)
{
    const int64_t half = (int64_t)1 << (n - 1), quarter = half >> 1;
    const int64_t three_quarter = half + quarter, n_slots = (int64_t)1 << bits;
    int64_t s = progress[0], found = progress[1]; /* s: the states explored */
    for (int64_t i = 0; i < n_slots; i++)
        slots[i] = -1;
    for (int32_t t = 0; t < found; t++)
        slots[slot(slots, n_slots, bits, low, high, follow, n, low[t], high[t], follow[t])] = t;
    /* the queue: grows as it is read */
    for (; s < found && found + 2 <= capacity; s++) {
        int64_t lo = low[s], hi = high[s];
        /* split_interval: canonical states are at least 2 wide */
        int64_t split = lo + (((hi - lo) * p0) >> n);
        split = split < lo + 1 ? lo + 1 : split > hi - 1 ? hi - 1 : split;
        for (int edge = 0; edge < 2; edge++) {
            int64_t rl = edge ? split : lo, rh = edge ? hi : split, rf = follow[s];
            int32_t length = 0;
            uint64_t value = 0;
            /* renormalize, on (length, value) */
            for (;;) {
                if (rh <= half) {
                    length += rf + 1;
                    value = value << (rf + 1) | (((uint64_t)1 << rf) - 1); /* 0, rf 1s */
                    rf = 0, rl *= 2, rh *= 2;
                } else if (rl >= half) {
                    length += rf + 1;
                    value = (value << 1 | 1) << rf; /* 1, rf 0s */
                    rf = 0, rl = (rl - half) * 2, rh = (rh - half) * 2;
                } else if (rl >= quarter && rh <= three_quarter && rf < f_max) {
                    rf++, rl = (rl - quarter) * 2, rh = (rh - quarter) * 2;
                } else {
                    break;
                }
            }
            int64_t i = slot(slots, n_slots, bits, low, high, follow, n, rl, rh, rf);
            if (slots[i] < 0) {
                if (found >= ceiling)
                    return -1;
                slots[i] = (int32_t)found;
                low[found] = rl, high[found] = rh, follow[found] = rf;
                found++;
            }
            target[2 * s + edge] = slots[i];
            emit_len[2 * s + edge] = length;
            emit_val[2 * s + edge] = (int64_t)value;
        }
    }
    progress[0] = s, progress[1] = found;
    return s < found;
}

/* moves heap[i] down to its place in the binary min-heap of `n` keys */
static inline void sift_down(uint64_t *heap, int64_t n, int64_t i)
{
    uint64_t key = heap[i];
    for (int64_t c; (c = 2 * i + 1) < n; i = c) {
        if (c + 1 < n && heap[c + 1] < heap[c])
            c++;
        if (key <= heap[c])
            break;
        heap[i] = heap[c];
    }
    heap[i] = key;
}

/* Huffman code lengths of every state, each from its rows' output lengths:
 * state s holds counts[s] consecutive `out_len`, and its rows' lengths go
 * to the same places of `lengths`.  Row i has the weight
 * 2**(top - out_len[i]), top the state's longest output: 2**-out_len[i]
 * normalized, times one positive factor per state, which keeps the order
 * of any two sums and their ties.  A node's key packs (weight, merged, smallest leaf index) as
 * weight << (b+1) | merged << b | index, where b is the bit length of the
 * state's row count rounded up to a power of two, at least 2.  A binary
 * heap pops the two least keys and pushes their merge; node ids count up
 * from the leaves, children before parents, and each merge records its
 * children's parent, so one pass from the root (node 2k - 2) down gives
 * the depths.  `heap` holds the most rows of a state and `scratch` three
 * times as many: the node of each live smallest leaf index, then the
 * parent links, turned into depths in place.
 *
 * Returns 0, or -1 when a state's widest weight or weight sum has more
 * than 61 - b bits, so that its keys might not fit in 62. */
int huffman_lengths(
    const int64_t *counts, int64_t states, const int32_t *out_len, int32_t *lengths,
    uint64_t *heap, int32_t *scratch)
{
    for (int64_t s = 0, base = 0; s < states; base += counts[s++]) {
        const int64_t k = counts[s];
        const int32_t *len = out_len + base;
        if (k < 1)
            continue;
        int b = 2;
        while ((int64_t)1 << (b - 1) < k)
            b++;
        const uint64_t leaf = ((uint64_t)1 << b) - 1, limit = (uint64_t)1 << (61 - b);
        int64_t top = len[0];
        for (int64_t i = 1; i < k; i++)
            top = len[i] > top ? len[i] : top;
        uint64_t sum = 0; /* below limit < 2**61 before each add, so it cannot wrap */
        for (int64_t i = 0; i < k; i++)
            if (top - len[i] >= 61 - b || (sum += (uint64_t)1 << (top - len[i])) >= limit)
                return -1;
        int32_t *node = scratch, *parent = scratch + k;
        for (int64_t i = 0; i < k; i++) {
            heap[i] = (uint64_t)1 << (top - len[i] + b + 1) | (uint64_t)i;
            node[i] = (int32_t)i;
        }
        for (int64_t i = k / 2 - 1; i >= 0; i--)
            sift_down(heap, k, i);
        int64_t n = k;
        for (int32_t id = (int32_t)k; id < 2 * k - 1; id++) {
            uint64_t x = heap[0];
            heap[0] = heap[--n];
            sift_down(heap, n, 0);
            uint64_t y = heap[0];
            uint64_t lo = (x & leaf) < (y & leaf) ? x & leaf : y & leaf;
            parent[node[x & leaf]] = parent[node[y & leaf]] = id;
            node[lo] = id;
            heap[0] = ((x >> (b + 1)) + (y >> (b + 1))) << (b + 1) | (uint64_t)1 << b | lo;
            sift_down(heap, n, 0);
        }
        parent[2 * k - 2] = 0; /* the root's depth; a parent's id is above its children's */
        for (int64_t i = 2 * k - 3; i >= 0; i--)
            parent[i] = parent[parent[i]] + 1;
        for (int64_t i = 0; i < k; i++)
            lengths[base + i] = parent[i];
    }
    return 0;
}

/* The canonical words of every state's complete prefix code from their
 * lengths alone, packed in row order into `bits`, zeroed by the caller:
 * state s holds counts[s] consecutive `lengths` (non-negative).  Taken in
 * (length, index) order, a word is the Kraft prefix sum of the words
 * before it, sum 2**(L_j - L_i), computed as a uint64 at the state's
 * longest length and shifted down; its low L_i bits are written.  The
 * order needs no sort: the words of one length start from the sum of all
 * shorter ones and count up in row order.
 *
 * Returns 0, or -1 when a state's longest word has more than 63 bits. */
int kraft_words(const int64_t *counts, int64_t states, const int32_t *lengths, uint8_t *bits)
{
    int64_t at = 0;
    for (int64_t s = 0, base = 0; s < states; base += counts[s++]) {
        const int32_t *len = lengths + base;
        int top = 0;
        for (int64_t i = 0; i < counts[s]; i++)
            top = len[i] > top ? len[i] : top;
        if (top > 63)
            return -1;
        /* the running sum of each length */
        uint64_t sums[64] = {0}, sum = 0;
        for (int64_t i = 0; i < counts[s]; i++)
            sums[len[i]] += (uint64_t)1 << (top - len[i]);
        for (int l = 0; l <= top; l++) {
            uint64_t words = sums[l];
            sums[l] = sum; /* wraps modulo 2**64, as the sums do */
            sum += words;
        }
        for (int64_t i = 0; i < counts[s]; i++) {
            int l = len[i];
            uint64_t word = sums[l] >> (top - l);
            sums[l] += (uint64_t)1 << (top - l);
            /* j: the word's bits left; k: those of them that go into at's byte */
            for (int j = l, k, free; j > 0; j -= k, at += k) {
                free = 8 - (int)(at & 7);
                k = free < j ? free : j;
                bits[at >> 3] |= (uint8_t)((word >> (j - k) & 0xFF >> (8 - k)) << (free - k));
            }
        }
    }
    return 0;
}

/* The mute-edge reduction of `hfsac.reducer.reduce_machine`, over the
 * edges of a full machine of `n` states: edge 2*s + symbol leaves state s
 * for target[e] and emits the emit_len[e] bits of emit_val[e].  The
 * reduced states are numbered breadth first from state 0: `order` lists
 * them, renumber[s] is the number of full state s (-1 while unreached) and
 * counts[k] the rows of state order[k].  progress holds (states walked,
 * states numbered, rows written), in and out; the queue is the states
 * numbered but not walked.
 *
 * A state's rows are the leaves of its parse tree, taken depth first with
 * the 0-edge first, so they come out in the lexicographic order of their
 * blocks: an emitting edge ends a row, a mute edge continues the block
 * into its target's two edges.  Row r gets its block length, `branch`, the
 * index of its block's last 1 (-1 if none), the number of its last edge's
 * target, numbered as it is first met, and that edge's output as out_len[r]
 * and out_bits[r].  The columns hold `capacity` rows.  `scratch` holds
 * 5n + 4 ints: the chain being walked (the state and the block's last 1 at
 * each depth), the depth at which each state was last entered, and the
 * stack of (edge, block length) pairs.  A state entered again on the chain
 * that enters it closes a non-emitting cycle; with none the chain's states
 * are distinct, so it is at most n deep.
 *
 * Returns 0 once every numbered state is walked, 1 when a state's rows do
 * not fit (its numbering is undone, to be walked again once the caller
 * has grown the columns), and -1 on a non-emitting cycle. */
int reduce_rows(
    const int32_t *target, const int32_t *emit_len, const int64_t *emit_val, int64_t n,
    int32_t *renumber, int32_t *order, int64_t *counts, int32_t *scratch, int32_t *row_len,
    int32_t *row_branch, int32_t *row_next, int32_t *out_len, int64_t *out_bits,
    int64_t capacity, int64_t *progress)
{
    int32_t *path = scratch, *last_one = path + n, *entered = last_one + n;
    int32_t *stack_edge = entered + n, *stack_len = stack_edge + n + 2;
    int64_t q = progress[0], found = progress[1], rows = progress[2];
    for (int64_t t = 0; t < n; t++)
        entered[t] = -1;
    for (; q < found; q++) {
        const int32_t s = order[q];
        const int64_t first_row = rows, first_found = found;
        int64_t top = 0;
        path[0] = s, entered[s] = 0;
        stack_edge[top] = 2 * s + 1, stack_len[top++] = 1;
        stack_edge[top] = 2 * s, stack_len[top++] = 1;
        while (top) {
            const int32_t e = stack_edge[--top], len = stack_len[top], d = len - 1;
            const int32_t to = target[e];
            last_one[d] = e & 1 ? d : d ? last_one[d - 1] : -1;
            if (!emit_len[e]) {
                const int32_t at = entered[to];
                if (0 <= at && at < len && path[at] == to)
                    return -1;
                path[len] = to, entered[to] = len;
                stack_edge[top] = 2 * to + 1, stack_len[top++] = len + 1;
                stack_edge[top] = 2 * to, stack_len[top++] = len + 1;
                continue;
            }
            if (rows == capacity) {
                while (found > first_found)
                    renumber[order[--found]] = -1;
                progress[0] = q, progress[1] = found, progress[2] = first_row;
                return 1;
            }
            if (renumber[to] < 0)
                renumber[to] = (int32_t)found, order[found++] = to;
            row_len[rows] = len, row_branch[rows] = last_one[d], row_next[rows] = renumber[to];
            out_len[rows] = emit_len[e], out_bits[rows++] = emit_val[e];
        }
        counts[q] = rows - first_row;
    }
    progress[0] = q, progress[1] = found, progress[2] = rows;
    return 0;
}

/* The input blocks of `reduce_rows`' rows, packed in row order into
 * `bits`, zeroed by the caller: row r's block has block_len[r] bits and
 * its last 1 at branch[r], or none where that is -1.  A state's blocks
 * are the leaves of its parse tree in depth-first order, the 0-edge
 * first, so each is the block before it up to its last 1, then that 1,
 * then 0s; a state's first block is all 0s. */
void block_bits(const int32_t *block_len, const int32_t *branch, int64_t rows, uint8_t *bits)
{
    for (int64_t r = 0, at = 0, last = 0; r < rows; last = at, at += block_len[r++]) {
        if (branch[r] >= 0) {
            const int64_t one = at + branch[r];
            copy_bits(bits, last, bits, at, branch[r], INT64_MAX);
            bits[one >> 3] |= (uint8_t)(0x80 >> (one & 7));
        }
    }
}

/* a `window_index` build: the table's words, whether every state's words of
 * over 8 bits are in lexicographic order, the entries laid out so far and
 * the bound on them, the index or NULL, and the entry of each word that
 * continues from a node */
struct build {
    const int32_t *lengths;
    const int64_t *offsets;
    const uint8_t *bits;
    int64_t size, limit;
    int in_order;
    int32_t *index, *key;
};

/* a level of child nodes: their words, in order, and the starts (with one
 * past the last) and word ends of the nodes */
struct level {
    int32_t *rows, *starts, *ends;
    int64_t nodes, count;
};

/* the entry of word r's `keep` bits from bit `bit`, in a node of `keep` bits */
static inline int entry(const struct build *b, int64_t r, int64_t bit, int keep)
{
    return window(b->bits, b->offsets[r] + bit) >> (8 - keep);
}

/* Whether the words of over 8 bits, the ones that reach child nodes, are
 * in lexicographic order within every state, a word before the words it
 * prefixes: the table of `window_index`, which takes the answer, so that
 * its two calls compare the words once.  Compared a window at a time. */
int words_in_order(
    const int64_t *row_base, int64_t states, const int32_t *lengths, const int64_t *offsets,
    const uint8_t *bits)
{
    for (int64_t s = 0; s < states; s++) {
        for (int64_t q = -1, r = row_base[s]; r < row_base[s + 1]; r++) {
            if (lengths[r] <= 8)
                continue;
            if (q < 0) {
                q = r;
                continue;
            }
            /* the bytes move, the bits stay */
            const int x = offsets[q] & 7, y = offsets[r] & 7;
            const uint8_t *u = bits + (offsets[q] >> 3), *v = bits + (offsets[r] >> 3);
            const int64_t n = lengths[q] < lengths[r] ? lengths[q] : lengths[r];
            int64_t j = 0;
            for (; j + 8 <= n && window(u, x) == window(v, y); j += 8)
                u++, v++;
            const int drop = n - j < 8 ? (int)(8 - (n - j)) : 0; /* the bits past the shorter */
            const int wu = window(u, x) >> drop, wv = window(v, y) >> drop;
            if (wu != wv ? wu > wv : lengths[q] > lengths[r])
                return 0;
            q = r;
        }
    }
    return 1;
}

/* a child node for `words` words that continue from entry e of `node`
 * (NULL without an index), the most bits any of them has left after it
 * `most`: 2**min(most, 8) entries from b->size on.  Returns 0, -1 over the
 * limit, or -2 where the link's entry is taken */
static int child(
    struct build *b, struct level *next, int32_t *node, int e, int most, int64_t words)
{
    const int w = most < 8 ? most : 8;
    const int64_t start = b->size;
    if ((b->size += 1 << w) > b->limit)
        return -1;
    if (node) {
        if (node[e] != -1)
            return -2;
        node[e] = -2 - (int32_t)(start << 3 | (8 - w));
    }
    next->starts[next->nodes] = (int32_t)start;
    next->starts[next->nodes + 1] = (int32_t)b->size;
    next->ends[next->nodes++] = (int32_t)(next->count += words);
    return 0;
}

/* one node of `window_index`, from `start`: the words rows[i] (or
 * first_row + i where `rows` is NULL), i < count, from bit `bit` of each,
 * in a node of 2**width entries.  With an index the node's entries are set
 * to -1 first, and a word with at most `width` bits left fills the entries
 * its kept bits prefix.  The other words, whose node is 8 wide, are
 * grouped by the entry they continue from, in entry order and stably,
 * into child nodes that go to `next`, with their words.  In a child node,
 * words in order need only the first's and the last's entries: they are
 * one group where those are the same.  Returns 0, -1 over the limit, or
 * -2 where an entry is taken. */
static int index_node(
    struct build *b, const int32_t *rows, int64_t first_row, int64_t count, int64_t start,
    int width, int64_t bit, struct level *next)
{
    int32_t *go = next->rows + next->count; /* the words that continue, in order */
    int32_t *node = b->index ? b->index + start : NULL;
    int64_t c = 0;
    int most = 0;
    if (node)
        memset(node, 0xFF, sizeof(int32_t) << width);
    for (int64_t i = 0; i < count; i++) {
        const int64_t r = rows ? rows[i] : first_row + i, left = b->lengths[r] - bit;
        if (left > width) {
            go[c++] = (int32_t)r;
            most = left - 8 > most ? (int)(left - 8) : most;
        } else if (node) {
            const int drop = width - (int)left;
            int32_t *at = node + (entry(b, r, bit, (int)left) << drop), taken = 0;
            for (int j = 0; j < 1 << drop; j++)
                taken |= ~at[j], at[j] = (int32_t)r; /* taken stays 0 over -1s */
            if (taken)
                return -2;
        }
    }
    if (!c)
        return 0;
    if (b->in_order && bit) {
        const int e = entry(b, go[0], bit, 8);
        if (e == entry(b, go[c - 1], bit, 8))
            return child(b, next, node, e, most, c);
    }
    uint64_t seen[4] = {0}; /* the entries that words continue from */
    int32_t words[256], most_at[256]; /* per entry seen: its words, their most bits left */
    for (int64_t j = 0; j < c; j++) {
        const int k = b->key[j] = entry(b, go[j], bit, 8);
        if (!(seen[k >> 6] >> (k & 63) & 1)) {
            seen[k >> 6] |= (uint64_t)1 << (k & 63);
            words[k] = most_at[k] = 0;
        }
        words[k]++;
        const int left = (int)(b->lengths[go[j]] - bit - 8);
        most_at[k] = left > most_at[k] ? left : most_at[k];
    }
    for (int q = 0; q < 4; q++) {
        for (uint64_t m = seen[q]; m; m &= m - 1) {
            const int k = q << 6 | __builtin_ctzll(m);
            int status = child(b, next, node, k, most_at[k], words[k]);
            if (status)
                return status;
            words[k] = (int32_t)next->count - words[k]; /* now the place of its next word */
        }
    }
    /* `go` is overwritten: the words are read again from the node's own list */
    for (int64_t i = 0, j = 0; i < count; i++) {
        const int64_t r = rows ? rows[i] : first_row + i;
        if (b->lengths[r] - bit > width)
            next->rows[words[b->key[j++]]++] = (int32_t)r;
    }
    return 0;
}

/* The window index of `hfsac.prefix.PrefixTable`, over the words of
 * `states` prefix codes: state s holds rows row_base[s] up to
 * row_base[s + 1], and word r has the lengths[r] bits from bit offsets[r]
 * of `bits`; `in_order` is their `words_in_order`.  The root node of state
 * s is entries s << 8 up to (s + 1) << 8; the child nodes follow, level by
 * level, in the order of the entries that link to them, each of 2**w
 * entries, w the most bits any word under it has left, at most 8.  A
 * word fills the entries that its bits in its last node prefix with its
 * row, a link entry holds -2 - (start << 3 | 8 - w), and every other
 * entry -1.  `scratch` holds 7 * long_words + 4 ints, long_words the
 * words of over 8 bits, which are the most that go on to a level of child
 * nodes: the entries they continue from in one node, and two levels.
 *
 * Without an `index` it only lays the nodes out; with one it also writes
 * them, each node when its words are placed.  Returns the entries, -1 when
 * they would be more than `limit` (at most 2**28 - 1, so that a link
 * fits), or -2 (with an index) when an entry would be taken twice: the
 * words are not a prefix code. */
int64_t window_index(
    const int64_t *row_base, int64_t states, const int32_t *lengths,
    const int64_t *offsets, const uint8_t *bits, int in_order, int64_t limit,
    int64_t long_words, int32_t *scratch, int32_t *index)
{
    const int64_t m = long_words;
    struct build b = {lengths, offsets, bits, states << 8, limit, in_order, index, scratch};
    struct level levels[2] = {
        {scratch + m, scratch + 3 * m, scratch + 5 * m + 2, 0, 0},
        {scratch + 2 * m, scratch + 4 * m + 1, scratch + 6 * m + 3, 0, 0},
    };
    if (b.size > limit)
        return -1;
    for (int64_t s = 0; s < states; s++) {
        int status = index_node(
            &b, NULL, row_base[s], row_base[s + 1] - row_base[s], s << 8, 8, 0, &levels[0]);
        if (status)
            return status;
    }
    for (int64_t bit = 8, cur = 0; levels[cur].nodes; bit += 8, cur ^= 1) {
        const struct level *at = &levels[cur];
        struct level *next = &levels[cur ^ 1];
        next->nodes = next->count = 0;
        for (int64_t i = 0; i < at->nodes; i++) {
            const int64_t first = i ? at->ends[i - 1] : 0;
            int status = index_node(
                &b, at->rows + first, 0, at->ends[i] - first, at->starts[i],
                __builtin_ctzll((uint64_t)(at->starts[i + 1] - at->starts[i])), bit, next);
            if (status)
                return status;
        }
    }
    return b.size;
}
