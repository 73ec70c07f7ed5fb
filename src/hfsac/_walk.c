/* The package's compiled kernels, built and loaded by `hfsac.prefix.kernel`:
 * `walk_block`, the step body of every walk; further down the stages of
 * the codec build: `explore`, the state exploration of
 * `hfsac.coder.build_full_fsm`, the two table stages, `huffman_lengths`
 * and `kraft_words`, `reduce_rows`, the mute-edge reduction of
 * `hfsac.reducer.reduce_machine`, and `window_index`, the window index of
 * a table's words.  Every kernel writes only into arrays its caller
 * allocates, and none calls malloc.
 *
 * walk_block runs the steps of `hfsac.prefix.walk`: up to m steps of a
 * keystream block over a window index, from bit `pos` of the `held` packed
 * bytes `bytes` (MSB first).
 *
 * A step takes its jump target where it has one, else the state the last
 * step carried over, and looks its window, the 8 bits from its first bit,
 * up at (state << 8) | window.  An entry below -1 links to a child node:
 * its first entry above 3 bits of the bits its lookup drops, as
 * -2 - (start << 3 | drop).  The node is looked up with the window 8 bits
 * further on.  Bytes past the held ones read as 0.  With `draws` given,
 * the step matches its word complemented from draws[k] % moduli[state] on:
 * every window is XOR-ed with the swap mask of its offset first.
 *
 * Writes each step's row to `rows` and returns the number of steps matched:
 * m, or fewer where a window matches nothing or a step starts past the one
 * window after the held bytes' end.
 */
#include <stdint.h>
#include <string.h>

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
static inline int window(const uint8_t *bytes, int64_t held, int64_t p)
{
    int64_t i = p >> 3;
    int hi = i < held ? bytes[i] : 0, lo = i + 1 < held ? bytes[i + 1] : 0;
    return ((hi << 8 | lo) >> (8 - (p & 7))) & 0xFF;
}

int64_t walk_block(
    const int32_t *index, const int32_t *lengths, const int32_t *next_state,
    const uint64_t *moduli, const uint8_t *bytes, int64_t held, int64_t pos,
    int64_t state, const int64_t *targets, const uint64_t *draws, int64_t m,
    int64_t *rows)
{
    int64_t k;
    for (k = 0; k < m && pos <= 8 * held; k++) {
        if (targets[k] >= 0)
            state = targets[k];
        /* past every word: nothing is complemented */
        int64_t swap = draws ? (int64_t)(draws[k] % moduli[state]) : INT64_MAX;
        int32_t entry = index[state << 8 | (window(bytes, held, pos) ^ swap_mask(swap))];
        for (int64_t off = 8; entry < -1; off += 8) {
            int32_t link = -2 - entry;
            int w = window(bytes, held, pos + off) ^ swap_mask(swap - off);
            entry = index[(link >> 3) + (w >> (link & 7))];
        }
        if (entry < 0)
            break;
        rows[k] = entry;
        pos += lengths[entry];
        state = next_state[entry];
    }
    return k;
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

/* Huffman code lengths of every state, the rules of `hfsac.huffman.code_lengths`:
 * state s holds counts[s] consecutive `weights` (non-negative), and its rows'
 * lengths go to the same places of `lengths`.  A node's key packs (weight,
 * merged, smallest leaf index) as weight << (b+1) | merged << b | index,
 * where b is the bit length of the state's row count rounded up to a power
 * of two, at least 2.  A binary heap pops the two least keys and pushes
 * their merge; node ids count up from the leaves, children before parents,
 * and each merge records its children's parent, so one pass from the root
 * (node 2k - 2) down gives the depths.  `heap` holds the most rows of a
 * state and `scratch` three times as many: the node of each live smallest
 * leaf index, then the parent links, turned into depths in place.
 *
 * Returns 0, or -1 when a state's weight sum has more than 61 - b bits, so
 * that its keys might not fit in 62. */
int huffman_lengths(
    const int64_t *counts, int64_t states, const int64_t *weights, int32_t *lengths,
    uint64_t *heap, int32_t *scratch)
{
    for (int64_t s = 0, base = 0; s < states; base += counts[s++]) {
        const int64_t k = counts[s];
        const int64_t *w = weights + base;
        int b = 2;
        while ((int64_t)1 << (b - 1) < k)
            b++;
        const uint64_t leaf = ((uint64_t)1 << b) - 1, limit = (uint64_t)1 << (61 - b);
        uint64_t sum = 0; /* below limit < 2**61 before each add, so it cannot wrap */
        for (int64_t i = 0; i < k; i++)
            if ((sum += (uint64_t)w[i]) >= limit)
                return -1;
        if (k < 1)
            continue;
        int32_t *node = scratch, *parent = scratch + k;
        for (int64_t i = 0; i < k; i++) {
            heap[i] = (uint64_t)w[i] << (b + 1) | (uint64_t)i;
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

/* The words of every state's complete prefix code from their lengths alone,
 * as 0/1 bytes in row order into `bits`, each word most significant bit
 * first: state s holds counts[s] consecutive `lengths` (non-negative).
 * Taken in row order, or with `canonical` in (length, index) order, a word
 * is the Kraft prefix sum of the words before it, sum 2**(L_j - L_i),
 * computed as a uint64 at the state's longest length and shifted down; its
 * low L_i bits are written.  The canonical order needs no sort: the words
 * of one length start from the sum of all shorter ones and count up in row
 * order.
 *
 * Returns 0, or -1 when a state's longest word has more than 63 bits. */
int kraft_words(
    const int64_t *counts, int64_t states, const int32_t *lengths, int canonical,
    uint8_t *bits)
{
    for (int64_t s = 0, base = 0; s < states; base += counts[s++]) {
        const int32_t *len = lengths + base;
        int top = 0;
        for (int64_t i = 0; i < counts[s]; i++)
            top = len[i] > top ? len[i] : top;
        if (top > 63)
            return -1;
        /* the running sum of each length in canonical order, or one sum */
        uint64_t sums[64] = {0}, sum = 0;
        if (canonical) {
            for (int64_t i = 0; i < counts[s]; i++)
                sums[len[i]] += (uint64_t)1 << (top - len[i]);
            for (int l = 0; l <= top; l++) {
                uint64_t words = sums[l];
                sums[l] = sum; /* wraps modulo 2**64, as the sums do */
                sum += words;
            }
        }
        for (int64_t i = 0; i < counts[s]; i++) {
            int l = len[i];
            uint64_t *at = canonical ? &sums[l] : &sum;
            uint64_t word = *at >> (top - l);
            *at += (uint64_t)1 << (top - l);
            for (int j = l - 1; j >= 0; j--)
                *bits++ = (uint8_t)(word >> j & 1);
        }
    }
    return 0;
}

/* The mute-edge reduction of `hfsac.reducer.reduce_machine`, over the
 * edges of a full machine of `n` states: edge 2*s + symbol leaves state s
 * for target[e] and emits emit_len[e] bits.  The reduced states are
 * numbered breadth first from state 0: `order` lists them, renumber[s] is
 * the number of full state s (-1 while unreached) and counts[k] the rows
 * of state order[k].  progress holds (states walked, states numbered, rows
 * written), in and out; the queue is the states numbered but not walked.
 *
 * A state's rows are the leaves of its parse tree, taken depth first with
 * the 0-edge first, so they come out in the lexicographic order of their
 * blocks: an emitting edge ends a row, a mute edge continues the block
 * into its target's two edges.  Row r gets its last edge, its block length,
 * `branch`, the index of its block's last 1 (-1 if none), and the number
 * of its last edge's target, numbered as it is first met.  The columns
 * hold `capacity` rows.  `scratch` holds 5n + 4 ints: the chain being
 * walked (the state and the block's last 1 at each depth), the depth at
 * which each state was last entered, and the stack of (edge, block length)
 * pairs.  A state entered again on the chain that enters it closes a
 * non-emitting cycle; with none the chain's states are distinct, so it is
 * at most n deep.
 *
 * Returns 0 once every numbered state is walked, 1 when a state's rows do
 * not fit (its numbering is undone, to be walked again once the caller
 * has grown the columns), and -1 on a non-emitting cycle. */
int reduce_rows(
    const int32_t *target, const int32_t *emit_len, int64_t n, int32_t *renumber,
    int32_t *order, int64_t *counts, int32_t *scratch, int32_t *row_edge,
    int32_t *row_len, int32_t *row_branch, int32_t *row_next, int64_t capacity,
    int64_t *progress)
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
            row_edge[rows] = e, row_len[rows] = len, row_branch[rows] = last_one[d];
            row_next[rows++] = renumber[to];
        }
        counts[q] = rows - first_row;
    }
    progress[0] = q, progress[1] = found, progress[2] = rows;
    return 0;
}

/* the `keep` (at most 8) bits of the 0/1 bytes `bits`, `n` of them, from
 * bit `at` on, as an int, the first bit most significant.  Eight bytes are
 * read at once where they lie within the bits, and the multiply gathers
 * each byte's low bit into the top byte of the product, byte i at bit
 * 63 - i, with no carries between them */
static inline int word_bits(const uint8_t *bits, int64_t n, int64_t at, int keep)
{
    uint64_t x = 0;
    if (at + 8 <= n) {
        memcpy(&x, bits + at, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        x = __builtin_bswap64(x);
#endif
    } else {
        for (int64_t j = 0; j < n - at; j++)
            x |= (uint64_t)bits[at + j] << 8 * j;
    }
    return (int)(((x & 0x0101010101010101u) * 0x8040201008040201u) >> 56) >> (8 - keep);
}

/* a `window_index` build: the table's words, whether every state's words of
 * over 8 bits are in lexicographic order, the entries laid out so far and
 * the bound on them, the index or NULL, and the entry of each word that
 * continues from a node */
struct build {
    const int32_t *lengths;
    const int64_t *offsets;
    const uint8_t *bits;
    int64_t n_bits, size, limit;
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
    return word_bits(b->bits, b->n_bits, b->offsets[r] + bit, keep);
}

/* whether the words of over 8 bits, the ones that reach child nodes, are
 * in lexicographic order within every state, a word before the words it
 * prefixes; compared 8 bytes at a time */
static int words_in_order(const struct build *b, const int64_t *row_base, int64_t states)
{
    for (int64_t s = 0; s < states; s++) {
        for (int64_t q = -1, r = row_base[s]; r < row_base[s + 1]; r++) {
            if (b->lengths[r] <= 8)
                continue;
            if (q < 0) {
                q = r;
                continue;
            }
            const uint8_t *x = b->bits + b->offsets[q], *y = b->bits + b->offsets[r];
            const int64_t n = b->lengths[q] < b->lengths[r] ? b->lengths[q] : b->lengths[r];
            int64_t j = 0;
            for (uint64_t u, v; j + 8 <= n; j += 8) {
                memcpy(&u, x + j, 8), memcpy(&v, y + j, 8);
                if (u != v)
                    break;
            }
            while (j < n && x[j] == y[j])
                j++;
            if (j < n ? x[j] > y[j] : b->lengths[q] > b->lengths[r])
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
 * row_base[s + 1], and word r has lengths[r] of the 0/1 bytes `bits`, n_bits
 * in all, from offsets[r].  The root node of state s is entries s << 8 up
 * to (s + 1) << 8; the child nodes follow, level by level, in the order of
 * the entries that link to them, each of 2**w entries, w the most bits any
 * word under it has left, at most 8.  A word fills the entries that its
 * bits in its last node prefix with its row, a link entry holds
 * -2 - (start << 3 | 8 - w), and every other entry -1.  `scratch` holds
 * 7 * long_words + 4 ints, long_words the words of over 8 bits, which are
 * the most that go on to a level of child nodes: the entries they continue
 * from in one node, and two levels.
 *
 * Without an `index` it only lays the nodes out; with one it also writes
 * them, each node when its words are placed.  Returns the entries, -1 when
 * they would be more than `limit` (at most 2**28 - 1, so that a link
 * fits), or -2 (with an index) when an entry would be taken twice: the
 * words are not a prefix code. */
int64_t window_index(
    const int64_t *row_base, int64_t states, const int32_t *lengths,
    const int64_t *offsets, const uint8_t *bits, int64_t n_bits, int64_t limit,
    int64_t long_words, int32_t *scratch, int32_t *index)
{
    const int64_t m = long_words;
    struct build b = {lengths, offsets, bits, n_bits, states << 8, limit, 0, index, scratch};
    struct level levels[2] = {
        {scratch + m, scratch + 3 * m, scratch + 5 * m + 2, 0, 0},
        {scratch + 2 * m, scratch + 4 * m + 1, scratch + 6 * m + 3, 0, 0},
    };
    if (b.size > limit)
        return -1;
    b.in_order = words_in_order(&b, row_base, states);
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
