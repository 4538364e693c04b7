/* The collapsed Gibbs sweep kernel, ported line for line from
 * textforage.lda._sweep_kernel.
 *
 * Tokens, document indices and z are int32; counts are int64 and
 * row-major (n_wt is V x k, n_td is k x D).  Each probability is
 * computed in double precision in the same expression order as the
 * Python kernel; built with -ffp-contract=off (no fused multiply-add)
 * the two give the same bits.  `uniforms` holds n_sweeps rows of
 * n_tokens draws: row s drives sweep s.  `probs` is k doubles of
 * scratch.  With `frozen` set, n_wt and n_t are read but never written
 * and only n_td moves.  `sweep` is the one exported function: a batch
 * of query fits calls it once per sample.
 */

#include <stdint.h>

/* The body of `sweep`, inlined once per value of `frozen` so that
 * neither copy tests it per token (a per-token test ran about 5% slower
 * at k = 200 on a 2-core Intel Xeon). */
static inline __attribute__((always_inline)) void
sweep_body(int64_t n_sweeps, int64_t n_tokens, const int32_t *tokens,
           const int32_t *docs, int32_t *z, int64_t *n_wt, int64_t *n_td,
           int64_t *n_t, int64_t v, int64_t k, int64_t n_docs, double alpha,
           double beta, const double *uniforms, double *probs, const int frozen)
{
    double v_beta = (double)v * beta;
    for (int64_t s = 0; s < n_sweeps; s++) {
        const double *row = uniforms + s * n_tokens;
        for (int64_t i = 0; i < n_tokens; i++) {
            int64_t w = tokens[i];
            int64_t d = docs[i];
            int64_t t_old = z[i];
            if (!frozen) {
                n_wt[w * k + t_old] -= 1;
                n_t[t_old] -= 1;
            }
            n_td[t_old * n_docs + d] -= 1;
            double total = 0.0;
            for (int64_t t = 0; t < k; t++) {
                double p = ((double)n_wt[w * k + t] + beta) / ((double)n_t[t] + v_beta)
                           * ((double)n_td[t * n_docs + d] + alpha);
                probs[t] = p;
                total += p;
            }
            double r = row[i] * total;
            double acc = 0.0;
            int64_t t_new = k - 1;
            for (int64_t t = 0; t < k; t++) {
                acc += probs[t];
                if (r < acc) {
                    t_new = t;
                    break;
                }
            }
            z[i] = (int32_t)t_new;
            if (!frozen) {
                n_wt[w * k + t_new] += 1;
                n_t[t_new] += 1;
            }
            n_td[t_new * n_docs + d] += 1;
        }
    }
}

void sweep(int64_t n_sweeps, int64_t n_tokens, const int32_t *tokens,
           const int32_t *docs, int32_t *z, int64_t *n_wt, int64_t *n_td,
           int64_t *n_t, int64_t v, int64_t k, int64_t n_docs, double alpha,
           double beta, const double *uniforms, double *probs, int64_t frozen)
{
    if (frozen)
        sweep_body(n_sweeps, n_tokens, tokens, docs, z, n_wt, n_td, n_t, v, k, n_docs,
                   alpha, beta, uniforms, probs, 1);
    else
        sweep_body(n_sweeps, n_tokens, tokens, docs, z, n_wt, n_td, n_t, v, k, n_docs,
                   alpha, beta, uniforms, probs, 0);
}
