(** Adaptive / progressive sampling (§3.4).

    Instead of drawing one batch uniformly, the sampler works in rounds of
    [round_fraction] of the sample space. Before each round the current
    boundary filters the candidate pool — cases it already predicts masked
    are not worth injecting — and the remaining candidates are drawn with
    probability [p_i ∝ 1 / max(S_i, 1)], biasing towards sites with little
    information. Sampling stops when a round's fresh samples are almost all
    SDC ([stop_sdc_fraction]), when the candidate pool empties, or at the
    round cap.

    The module is structured as an explicit round state machine
    ({!state}, {!plan_round}, {!fold_round}, {!finish}) so the serial
    driver ({!run}) and the distributed planner ([Ftb_plan]) share one
    implementation of the paper's loop. The RNG is consumed by nothing
    but {!plan_round}, and sample outcomes are pure functions of
    (golden, model, case) — together these make a distributed round
    bit-identical to the serial one regardless of where cases execute. *)

type config = {
  round_fraction : float;  (** fraction of the space drawn per round (paper: 0.001) *)
  stop_sdc_fraction : float;  (** stop when ≥ this fraction of a round is SDC (paper: 0.95) *)
  max_rounds : int;  (** safety cap *)
  filter : bool;  (** apply the §3.5 filter operation when building boundaries *)
  bias : bool;  (** bias candidate selection by inverse information (off = uniform) *)
}

val default_config : config
(** 0.1 % rounds, 95 % stop criterion, 200 round cap, filter on, bias on. *)

val check_config : config -> unit
(** Validate ranges; raises [Invalid_argument] (the usage-error text every
    entry point shares). *)

type stop_reason = Converged | Pool_exhausted | Round_cap

val stop_reason_to_string : stop_reason -> string
(** ["converged"], ["pool-exhausted"], ["round-cap"] — the token used by
    checkpoints, the boundary store and the CLI. *)

val stop_reason_of_string : string -> stop_reason option

type result = {
  boundary : Boundary.t;  (** the final approximated fault tolerance boundary *)
  samples : Ftb_inject.Sample_run.t array;  (** every sample drawn, in draw order *)
  rounds : int;
  sample_fraction : float;  (** |samples| / |complete sample space| *)
  stop_reason : stop_reason;
}

val run :
  ?config:config ->
  ?on_round:(round:int -> drawn:int -> masked:int -> sdc:int -> crash:int -> unit) ->
  ?spec:Ftb_inject.Models.spec ->
  ?fuel:int ->
  Ftb_util.Rng.t ->
  Ftb_trace.Golden.t ->
  result
(** Run the progressive campaign against a program's golden run under a
    fault model ([spec], default bit-flip-64) with an optional [fuel]
    watchdog — the serial oracle every other execution path must match
    byte for byte. *)

(** {1 The round state machine}

    One round is [plan_round] (draw the biased candidate set — the only
    RNG consumer) followed by executing the drawn cases anywhere
    ({!Ftb_inject.Sample_run.run_case_model} is the unit of work) and
    [fold_round] (tally, fold the new samples into boundary +
    information, decide whether to stop). Drivers checkpoint between
    [plan_round] and [fold_round] by saving the RNG state, the
    accumulated samples and the drawn cases.

    A round costs O(cases in the space + its own samples), plus the
    stored contributions of the sites whose §3.5 filter floor it lowers:
    the injected error of every case is computed once, at
    {!state_create}, and folding never revisits earlier samples. *)

type state
(** Mutable campaign state: sampled set, accumulated samples (draw
    order), current boundary, per-site information, rounds folded. *)

val state_create :
  ?config:config -> ?spec:Ftb_inject.Models.spec -> Ftb_trace.Golden.t -> state
(** Fresh state before round 1. Raises [Invalid_argument] on a bad
    config. *)

val state_restore :
  ?config:config ->
  ?spec:Ftb_inject.Models.spec ->
  Ftb_trace.Golden.t ->
  rounds:int ->
  Ftb_inject.Sample_run.t array ->
  state
(** Rebuild the state a driver had after folding [rounds] rounds whose
    accumulated samples (draw order) are given — the checkpoint-resume
    path. The samples are folded as one batch, which gives the same
    boundary and information as folding them round by round, so the
    restored state is indistinguishable from the original. *)

val plan_round : state -> Ftb_util.Rng.t -> int array option
(** Draw the next round's cases (dense case indices, in draw order).
    [None] when the candidate pool is empty ([Pool_exhausted]). Advances
    the RNG; nothing else in the machine does. *)

val fold_round :
  ?on_round:(round:int -> drawn:int -> masked:int -> sdc:int -> crash:int -> unit) ->
  state ->
  cases:int array ->
  samples:Ftb_inject.Sample_run.t array ->
  [ `Stop of stop_reason | `Continue ]
(** Fold one executed round: [samples.(i)] is the result of running
    [cases.(i)] (the array {!plan_round} returned, same order). Tallies,
    reports [on_round], folds the samples into the boundary and
    information, and decides: [`Stop Converged] on the §3.4 criterion,
    [`Stop Round_cap] at the cap, [`Continue] otherwise. Raises [Invalid_argument] on a
    length mismatch or an empty round. *)

val round_verdict :
  config -> rounds:int -> drawn:int -> masked:int -> sdc:int -> stop_reason option
(** The decision {!fold_round} takes after folding the [rounds]-th round,
    from that round's draw size and tallies: [Some Converged],
    [Some Round_cap] or [None] (continue). A resumed driver uses it to recover the verdict
    on a round whose folding it recorded but whose stop it did not. *)

val finish : state -> stop_reason -> result
(** Package the final state. *)

val state_rounds : state -> int
val state_sample_count : state -> int
val state_total : state -> int
(** Size of the model's complete sample space. *)

val state_boundary : state -> Boundary.t
(** A copy of the boundary inferred from everything folded so far:
    later rounds never mutate it. *)

val state_samples : state -> Ftb_inject.Sample_run.t array
(** Accumulated samples in draw order (a fresh array each call;
    checkpoint-rate usage only). *)
