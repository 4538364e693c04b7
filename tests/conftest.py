import base64

import numpy as np
import pytest
from hypothesis import strategies as st

from textforage.corpus import Corpus, DocumentSpec, EncodedDocument, Vocabulary
from textforage import lda


def build_corpus(doc_tokens, terms, dates=None):
    """Assemble an encoded corpus directly from token-id lists."""
    counts = np.zeros(len(terms), dtype=np.int64)
    for doc in doc_tokens:
        for t in doc:
            counts[t] += 1
    vocab = Vocabulary(terms, counts)
    docs = []
    for i, ids in enumerate(doc_tokens):
        read, pub = (dates[i] if dates else (None, None))
        docs.append(
            EncodedDocument(
                spec=DocumentSpec(
                    id=f"doc{i}", read_date=read, pub_date=pub, order_index=i
                ),
                token_ids=np.asarray(ids, dtype=np.int32),
                dropped=0,
            )
        )
    return Corpus(vocabulary=vocab, documents=tuple(docs))


def packed(values, bound: int) -> str:
    """Integers in [0, bound) as the corpus and model files store them,
    written apart from the library: base64 of one little-endian integer
    whose bits i*w to i*w + w - 1 hold values[i], w the bits of
    `bound - 1` (at least one), in as few whole bytes as hold them."""
    width = max(1, (bound - 1).bit_length())
    number = sum(int(value) << (i * width) for i, value in enumerate(values))
    return base64.b64encode(number.to_bytes(-(-len(values) * width // 8), "little")).decode()


def unpacked(text: str, bound: int, count: int) -> list[int]:
    """The `count` integers `packed(values, bound)` wrote."""
    width = max(1, (bound - 1).bit_length())
    number = int.from_bytes(base64.b64decode(text), "little")
    return [(number >> (i * width)) & ((1 << width) - 1) for i in range(count)]


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled Gibbs kernel into a session directory, not ~/.cache."""
    patch = pytest.MonkeyPatch()
    cache = tmp_path_factory.mktemp("cache")
    patch.setenv("XDG_CACHE_HOME", str(cache))
    yield cache
    patch.undo()


@pytest.fixture
def tiny_corpus():
    """Two 3-token documents over a 3-term vocabulary."""
    return build_corpus([[0, 0, 1], [2, 2, 1]], ["a", "b", "c"])


@pytest.fixture
def small_model():
    """A deterministic trained model over a 6-doc synthetic corpus."""
    rng = np.random.default_rng(42)
    doc_tokens = [rng.integers(0, 12, size=30).tolist() for _ in range(6)]
    corpus = build_corpus(doc_tokens, [f"w{i}" for i in range(12)])
    config = lda.TrainingConfig(k=3, seed=5, alpha=0.2, beta=0.1, iterations=40)
    return lda.train(corpus, config)


def random_distributions(rng, n, k, concentration=0.5):
    return rng.dirichlet(np.full(k, concentration), size=n)


@st.composite
def reading_rows(draw, max_n=12, max_k=6):
    """An (n, k) stack of distributions from small integer weights.

    The first row has full support, so past means always do; later rows
    may hold zeros, which makes some t2t and t2n steps infinite.
    """
    k = draw(st.integers(2, max_k))
    n = draw(st.integers(2, max_n))
    row = st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any)
    first = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    weights = np.array([first] + draw(st.lists(row, min_size=n - 1, max_size=n - 1)), float)
    return weights / weights.sum(axis=1, keepdims=True)


def reference_constrained_permutation(order, rng):
    """`constrained_permutation` as one `rng.integers` call per slot,
    with the dates sorted on every call."""
    n = len(order)
    slot_seq = sorted(range(n), key=lambda s: (order.slot_dates[s], s))
    items_by_pub = sorted(range(n), key=lambda i: (order.pub_dates[i], i))

    perm = np.empty(n, dtype=np.int64)
    pool = np.empty(n, dtype=np.int64)
    pool_size = 0
    next_item = 0
    for slot in slot_seq:
        slot_date = order.slot_dates[slot]
        while next_item < n and order.pub_dates[items_by_pub[next_item]] <= slot_date:
            pool[pool_size] = items_by_pub[next_item]
            pool_size += 1
            next_item += 1
        if pool_size == 0:
            raise ValueError(
                f"infeasible order: slot {slot} ({order.item_ids[slot]}, "
                f"{slot_date.isoformat()}) has no eligible remaining item"
            )
        j = int(rng.integers(pool_size))
        perm[slot] = pool[j]
        pool[j] = pool[pool_size - 1]
        pool_size -= 1
    return perm


def reference_null_ensemble(order, dists, n, seed, modes=("t2t", "t2p")):
    """Every field and derived statistic of `nullmodels.null_ensemble`'s
    comparison, one permutation at a time, each drawn by
    `reference_constrained_permutation`, each series measured by
    `surprise_values`, the CI by `np.percentile`."""
    from types import SimpleNamespace

    from textforage.measures import surprise_values
    from textforage.seeds import derive_seed, rng_from

    theta = np.asarray(dists, dtype=np.float64)
    actual_series = {m: surprise_values(theta, m) for m in modes}
    permutations = np.empty((n, len(order)), dtype=np.int64)
    per_perm_means = {m: np.empty(n) for m in modes}
    series_sums = {m: np.zeros(len(order) - 1) for m in modes}
    for draw in range(n):
        perm = reference_constrained_permutation(order, rng_from(derive_seed(seed, draw, "null")))
        permutations[draw] = perm
        for m in modes:
            values = surprise_values(theta[perm], m)
            per_perm_means[m][draw] = values.mean()
            series_sums[m] += values
    null_series = {m: series_sums[m] / n for m in modes}
    return SimpleNamespace(
        permutations=permutations,
        actual_series=actual_series,
        mean_by_mode=per_perm_means,
        null_series_by_mode=null_series,
        actual_mean={m: float(actual_series[m].mean()) for m in modes},
        p_value={m: float((1 + np.sum(per_perm_means[m] <= actual_series[m].mean())) / (n + 1))
                 for m in modes},
        cumulative_relative={m: np.cumsum(actual_series[m] - null_series[m]) for m in modes},
        null_ci={m: (float(np.percentile(per_perm_means[m], 2.5)),
                     float(np.percentile(per_perm_means[m], 97.5))) for m in modes},
    )


def reference_greedy_path(theta, start, objective):
    """`nullmodels.greedy_shortest_path` over a list of remaining items,
    one `kl_divergence_rows` call per step."""
    from textforage.measures import kl_divergence_rows

    remaining = [i for i in range(len(theta)) if i != start]
    path = [start]
    past_sum = theta[start].copy()
    current = start
    while remaining:
        if objective == "t2t":
            reference = theta[current]
        else:
            reference = past_sum / len(path)
            reference = reference / reference.sum()
        costs = kl_divergence_rows(theta[remaining], reference)
        current = remaining.pop(int(np.argmin(costs)))
        path.append(current)
        past_sum += theta[current]
    return np.asarray(path, dtype=np.int64)


def reference_step_ranks(theta, order):
    """Reading-choice ranks by one KL row block per step."""
    from textforage.measures import kl_divergence_rows

    ranks = []
    for i in range(len(order) - 1):
        costs = kl_divergence_rows(theta[order[i + 1 :]], theta[order[i]])
        ranks.append(1 + int(np.sum(costs < costs[0])))
    return np.asarray(ranks, dtype=np.int64)


def reference_rank_payload(theta, order, permutations):
    """`rank_distribution(...).to_payload()` from per-step ranks, binned
    by `int.bit_length` one rank at a time."""
    from textforage.nullmodels import RankDistribution

    max_rank = len(order) - 1
    n_bins = max_rank.bit_length()

    def masses(ranks):
        out = np.zeros(n_bins)
        for r in ranks:
            out[int(r).bit_length() - 1] += 1
        return out / len(ranks)

    labels = []
    for b in range(n_bins):
        top = min(2 ** (b + 1) - 1, max_rank)
        labels.append(f"{2 ** b}" if 2 ** b == top else f"{2 ** b}-{top}")
    observed = masses(reference_step_ranks(theta, order))
    null = np.vstack([masses(reference_step_ranks(theta, p)) for p in permutations])
    null_mean = null.mean(axis=0)
    payload = RankDistribution(
        bin_labels=tuple(labels),
        observed_mass=observed,
        null_mean_mass=null_mean,
        null_ci=np.percentile(null, [2.5, 97.5], axis=0).T,
    ).to_payload()
    # a bin the null never reaches has no finite ratio
    payload["ratio"] = [float(o / m) if m > 0 else None for o, m in zip(observed, null_mean)]
    return payload


def reference_pam(dist, k):
    """`querysample._pam` with one cost evaluation per trial swap."""
    n = dist.shape[0]
    medoids = [int(np.argmin(dist.sum(axis=1)))]
    while len(medoids) < k:
        current = dist[:, medoids].min(axis=1)
        gains = np.maximum(current[None, :] - dist, 0.0).sum(axis=1)
        gains[medoids] = -np.inf
        medoids.append(int(np.argmax(gains)))
    medoids = sorted(medoids)

    def cost(meds):
        return float(dist[:, meds].min(axis=1).sum())

    best_cost = cost(medoids)
    improved = True
    while improved:
        improved = False
        for mi, m in enumerate(list(medoids)):
            others = np.setdiff1d(np.arange(n), medoids)
            for candidate in others:
                trial = sorted(medoids[:mi] + [int(candidate)] + medoids[mi + 1 :])
                c = cost(trial)
                if c < best_cost - 1e-15:
                    medoids = trial
                    best_cost = c
                    improved = True
                    break
            if improved:
                break
    return np.asarray(medoids, dtype=int)


def reference_silhouette_mean(dist, labels):
    """`querysample._silhouette_mean` one sample and one cluster at a time."""
    n = len(labels)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        return float("nan")
    score = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        own_count = own.sum() - 1
        if own_count == 0:
            score[i] = 0.0  # singleton cluster
            continue
        a = dist[i, own].sum() / own_count
        b = min(dist[i, labels == u].mean() for u in uniq if u != labels[i])
        score[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(score.mean())


def reference_js_distance_matrix(rows):
    """`measures.js_distance_matrix` as one one-against-the-rest block per row."""
    theta = np.asarray(rows, dtype=np.float64)
    n = theta.shape[0]
    out = np.zeros((n, n))
    for i in range(n - 1):
        p, q_rows = theta[i], theta[i + 1 :]
        m = 0.5 * (q_rows + p)
        with np.errstate(divide="ignore", invalid="ignore"):
            p_terms = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0) / m), 0.0)
            q_terms = np.where(
                q_rows > 0, q_rows * np.log2(np.where(q_rows > 0, q_rows, 1.0) / m), 0.0
            )
        div = np.maximum(0.5 * p_terms.sum(axis=1) + 0.5 * q_terms.sum(axis=1), 0.0)
        out[i, i + 1 :] = out[i + 1 :, i] = np.sqrt(div)
    return out


@st.composite
def tied_ensembles(draw, min_n=3, max_n=120, max_width=8):
    """An (n, width) stack of distributions in which ties are common.

    A third of the stacks repeat a few distinct rows many times, a third
    are Dirichlet draws rounded to one decimal (so rows and distances
    repeat, and entries are often 0), and a third are plain Dirichlet
    draws.
    """
    n = draw(st.integers(min_n, max_n))
    width = draw(st.integers(2, max_width))
    kind = draw(st.sampled_from(["duplicates", "rounded", "dirichlet"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "duplicates":
        distinct = rng.dirichlet(np.full(width, 0.5), size=draw(st.integers(1, 6)))
        return distinct[rng.integers(0, len(distinct), size=n)]
    rows = rng.dirichlet(np.full(width, 0.5), size=n)
    if kind == "rounded":
        rows = np.round(rows, 1)
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
    return rows


def reference_sweep_locked(tokens, z, base_wt, base_t, td_col, v, alpha, beta, uniforms, probs):
    """The locked query sweep as its own kernel: `lda._sweep_kernel` with
    `frozen` set must give these bits."""
    # word-topic counts stay frozen at the trained snapshot; only the
    # query document's own topic counts evolve
    k = base_wt.shape[1]
    v_beta = v * beta
    for row in uniforms:
        for i in range(tokens.shape[0]):
            w = tokens[i]
            t_old = z[i]
            td_col[t_old] -= 1
            total = 0.0
            for t in range(k):
                p = (base_wt[w, t] + beta) / (base_t[t] + v_beta) * (td_col[t] + alpha)
                probs[t] = p
                total += p
            r = row[i] * total
            acc = 0.0
            t_new = k - 1
            for t in range(k):
                acc += probs[t]
                if r < acc:
                    t_new = t
                    break
            z[i] = t_new
            td_col[t_new] += 1


def reference_fit_document(model, tokens, iterations, phi_mode, seed):
    """One query fit as `querysample.fit_document` made it sample by
    sample: over the full V x k counts, the locked sweep through
    `reference_sweep_locked`.  Returns theta,
    perplexity, the final word-topic counts (None when locked) and z."""
    from textforage.seeds import rng_from

    tokens = np.asarray(tokens, dtype=np.int32)
    k, alpha, beta = model.config.k, model.config.alpha, model.config.beta
    rng = rng_from(seed)
    z = rng.integers(0, k, tokens.size, dtype=np.int32)
    td_col = np.bincount(z, minlength=k).astype(np.int64)
    uniforms = rng.random((iterations, tokens.size))
    if phi_mode == "locked":
        reference_sweep_locked(tokens, z, model.n_wt, model.n_t, td_col, model.n_terms,
                               alpha, beta, uniforms, np.empty(k))
        wt, t_totals, counts = model.n_wt, model.n_t, None
    else:
        wt, t_totals = model.n_wt.copy(), model.n_t.copy()
        np.add.at(wt, (tokens, z), 1)
        np.add.at(t_totals, z, 1)
        td = td_col.reshape(k, 1)
        lda.sweep(tokens, np.zeros(tokens.size, np.int32), z, wt, td, t_totals, alpha, beta,
                  uniforms)
        td_col, counts = td[:, 0], wt
    theta = (td_col + alpha) / (tokens.size + k * alpha)
    phi_rows = (wt[tokens] + beta) / (t_totals + model.n_terms * beta)
    perp = lda.perplexity_from_distributions(theta, phi_rows, [np.arange(tokens.size)])
    return theta, perp, counts, z


def reference_sample_ensemble(model, tokens, n_samples, iterations, phi_mode, master_seed):
    """`querysample.sample_ensemble`'s thetas and perplexities, one
    `reference_fit_document` per sample."""
    from textforage.seeds import derive_seed

    fits = [reference_fit_document(model, tokens, iterations, phi_mode,
                                   derive_seed(master_seed, i, "ensemble"))
            for i in range(n_samples)]
    return np.vstack([f[0] for f in fits]), np.array([f[1] for f in fits])


def reference_cost_matrix(x, min_len, variance_mode, var_floor):
    """`epochs._cost_matrix` one segment start at a time, laid out
    cost[start, end] (the transpose of the one `_cost_matrix` returns)."""
    from textforage.epochs import _LOG_2PI

    n = x.size
    y = x - x.mean() if variance_mode == "mle" else x
    s = np.concatenate([[0.0], np.cumsum(y)])
    q = np.concatenate([[0.0], np.cumsum(y**2)])
    cost = np.full((n + 1, n + 1), -np.inf)
    for i in range(n + 1 - min_len):
        j = np.arange(i + min_len, n + 1)
        m = (j - i).astype(np.float64)
        seg_sum = s[j] - s[i]
        seg_sq = q[j] - q[i]
        if variance_mode == "mle":
            denom, weight = m, m / 2.0
        else:
            denom, weight = m - 1.0, (m - 1.0) / 2.0
        mu = seg_sum / denom
        var = (seg_sq - 2.0 * mu * seg_sum + m * mu**2) / denom
        var = np.maximum(var, var_floor)
        cost[i, i + min_len :] = -weight * (1.0 + _LOG_2PI + np.log(var))
    return cost


def reference_boundary_dp(cost, most, min_len):
    """`epochs._boundary_dp` one segment end at a time, over the
    cost[start, end] layout of `reference_cost_matrix`."""
    n = cost.shape[0] - 1
    dp = np.full((most + 1, n + 1), -np.inf)
    back = np.zeros((most + 1, n + 1), dtype=np.int64)
    dp[1] = cost[0]
    for e in range(2, most + 1):
        lo = (e - 1) * min_len
        for j in range(e * min_len, n + 1):
            candidates = dp[e - 1, lo : j - min_len + 1] + cost[lo : j - min_len + 1, j]
            best = int(np.argmax(candidates))  # first max -> earliest boundary
            dp[e, j] = candidates[best]
            back[e, j] = lo + best
    return back
