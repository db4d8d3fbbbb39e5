(** The fault tolerance boundary (§3.2–3.5).

    The boundary assigns every dynamic instruction [i] a threshold
    [Δe_i ≥ 0]: the largest error magnitude the program is believed to
    tolerate when injected at [i]. Two constructions are provided:

    - {!infer}: Algorithm 1 — aggregate the propagated perturbations of
      masked sampled experiments, taking the per-site maximum, optionally
      guarded by the §3.5 filter operation;
    - {!exhaustive}: the §4.1 brute-force construction from a complete
      campaign — per site, the largest masked injected error that is still
      below the smallest SDC-producing injected error.

    Thresholds of [0.] mean "no evidence of tolerance"; [infinity] means
    "no error at this site was ever seen to matter". *)

type t = private {
  thresholds : float array;  (** [Δe] per dynamic instruction *)
  support : int array;
      (** number of masked propagation observations that contributed to
          each site's threshold (its evidence mass) *)
}

val create : sites:int -> t
(** All-zero boundary over [sites] dynamic instructions. *)

val sites : t -> int
val threshold : t -> int -> float

val copy : t -> t

val add_masked_propagation :
  ?min_sdc_error:float array -> t -> start:int -> float array -> unit
(** [add_masked_propagation t ~start deviations] folds one masked
    experiment's propagation data into the boundary:
    [Δe_j ← max Δe_j deviations.(j - start)] for every covered site
    (Algorithm 1). Zero deviations carry no evidence and are skipped.
    When [min_sdc_error] is given (the filter operation, §3.5), a
    deviation at site [j] that is not strictly below [min_sdc_error.(j)]
    is discarded instead of aggregated. *)

val min_sdc_errors : sites:int -> Ftb_inject.Sample_run.t array -> float array
(** Per-site minimum injected error over the SDC samples ([infinity]
    where no SDC sample exists) — the reference values of the filter
    operation. *)

val infer :
  ?filter:bool -> sites:int -> Ftb_inject.Sample_run.t array -> t
(** Build a boundary from sampled experiments per Algorithm 1. [filter]
    (default [false]) enables the §3.5 filter operation using the SDC
    samples in the same set. *)

(** Incremental {!infer}: absorbs sample batches one at a time, and after
    every batch equals [infer ?filter] over all samples absorbed so far.
    A batch costs O(its propagation data + the stored contributions of
    the sites whose filter floor it lowers), not a rebuild. *)
module Acc : sig
  type boundary := t
  type t

  val create : ?filter:bool -> sites:int -> unit -> t
  (** Empty accumulator; [filter] (default [false]) as in {!infer}. *)

  val absorb : t -> Ftb_inject.Sample_run.t array -> unit
  (** Fold in one batch of samples. *)

  val threshold : t -> int -> float
  (** The current threshold of a site, without a snapshot. *)

  val snapshot : t -> boundary
  (** A copy of the current boundary; later batches do not change it. *)
end

val exhaustive : Ftb_inject.Ground_truth.t -> t
(** The §4.1 brute-force boundary. Per site, with [E_m] the injected
    errors of masked flips and [E_s] those of SDC flips: the threshold is
    [max { e ∈ E_m | e < min E_s }] (with [min E_s = infinity] when the
    site has no SDC flip), or [0.] when the set is empty. Each
    contributing flip also counts as support. Crash flips are excluded:
    they are detectable outcomes, not silent corruptions. *)
