/* The package's compiled kernels, built and loaded by `hfsac.prefix.kernel`:
 * `walk_block`, the step body of every walk; further down `explore`, the
 * state exploration of `hfsac.coder.build_full_fsm`, and the two table
 * stages, `huffman_lengths` and `kraft_words`.
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
