/* The step body of `hfsac.prefix.walk`, for every walk: up to m steps of a
 * keystream block over a window index, from window `pos` of `win`.
 *
 * A step takes its jump target where it has one, else the state the last
 * step carried over, and looks its window up at (state << 8) | window.  An
 * entry below -1 links to a child node: its first entry above 3 bits of the
 * bits its lookup drops, as -2 - (start << 3 | drop).  The node is looked up
 * with the window 8 bits further on, and windows past the end of `win` read
 * as 0.  With `draws` given, the step matches its word complemented from
 * draws[k] % moduli[state] on: every window is XOR-ed with the swap mask of
 * its offset first.
 *
 * Writes each step's row to `rows` and returns the number of steps matched:
 * m, or fewer where a window matches nothing or a step starts past the end
 * of `win`.  Built and loaded by `hfsac.prefix`.
 */
#include <stdint.h>

/* the bits of a window at or past `swap` (relative to the window's first
 * bit) complemented; a shift by 8 or more is 0, written out because in C a
 * shift by the width of the type or more is undefined */
static inline int swap_mask(int64_t swap)
{
    return swap <= 0 ? 0xFF : swap >= 8 ? 0 : 0xFF >> swap;
}

int64_t walk_block(
    const int32_t *index, const int32_t *lengths, const int32_t *next_state,
    const uint8_t *win, int64_t n_win, int64_t pos, int64_t state,
    const int64_t *targets, const uint64_t *draws, const uint64_t *moduli,
    int64_t m, int64_t *rows)
{
    int64_t k;
    for (k = 0; k < m && pos < n_win; k++) {
        if (targets[k] >= 0)
            state = targets[k];
        /* past every word: nothing is complemented */
        int64_t swap = draws ? (int64_t)(draws[k] % moduli[state]) : INT64_MAX;
        int32_t entry = index[state << 8 | (win[pos] ^ swap_mask(swap))];
        for (int64_t off = 8; entry < -1; off += 8) {
            int32_t link = -2 - entry;
            int window = pos + off < n_win ? win[pos + off] : 0;
            window ^= swap_mask(swap - off);
            entry = index[(link >> 3) + (window >> (link & 7))];
        }
        if (entry < 0)
            break;
        rows[k] = entry;
        pos += lengths[entry];
        state = next_state[entry];
    }
    return k;
}
