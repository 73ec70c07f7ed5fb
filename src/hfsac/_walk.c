/* The package's compiled kernels, built and loaded by `hfsac.prefix.kernel`:
 * `walk_block`, the step body of every walk, and `explore`, the state
 * exploration of `hfsac.coder.build_full_fsm`, further down.
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
