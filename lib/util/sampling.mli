(** Sampling strategies used by the campaigns.

    The paper's default strategy is uniform random sampling without
    replacement over all (site, bit) cases; the adaptive method (§3.4)
    biases site selection with probability [p_i ∝ 1/S_i] where [S_i] is the
    information already available at site [i]. *)

val uniform : Rng.t -> n:int -> k:int -> int array
(** [uniform rng ~n ~k] draws [k] distinct indices from [\[0, n)]
    uniformly. Alias of {!Rng.sample_without_replacement}. *)

val weighted_without_replacement : Rng.t -> weights:float array -> k:int -> int array
(** [weighted_without_replacement rng ~weights ~k] draws [k] distinct
    indices with probability proportional to [weights] (Efraimidis-Spirakis
    exponential-key reservoir: key_i = -ln(u)/w_i, take the [k] smallest).
    The result is in ascending (key, index) order. One [Rng.float] is drawn
    per positive weight, in index order, whatever [k] is. Zero-weight
    indices are never selected, even when a tiny positive weight's key
    overflows to infinity; fewer than [k] positive weights raise
    [Invalid_argument]. Negative or NaN weights raise [Invalid_argument].
    O(n log k) time, O(n) extra space. *)

val inverse_information_weights : info:float array -> float array
(** [inverse_information_weights ~info] is the paper's bias term: weight
    [1 / max(info_i, 1)] for each site, so sites with little injection or
    propagation information are favoured. Raises on negative or NaN
    entries. *)

val stratified_indices : n:int -> strata:int -> (int * int) array
(** [stratified_indices ~n ~strata] splits [\[0, n)] into [strata]
    near-equal contiguous ranges, returned as [(start, stop_exclusive)]
    pairs — the grouping used by Figure 4's per-region averages. *)
