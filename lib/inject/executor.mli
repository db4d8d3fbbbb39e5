(** Batched campaign executor: prefix-snapshot bit batching.

    The 64 cases of one injection site share an identical injection-free
    prefix — every dynamic instruction before the site produces its golden
    value no matter which bit the case will flip. An exhaustive campaign
    re-executes that prefix 64 times per site for nothing. For programs
    that carry the [resumable] capability ({!Ftb_trace.Program.t}, today
    the compiled IR machine of [Ftb_ir]), this executor runs the prefix
    once under a counting context, snapshots the interpreter state at the
    injection point, and replays only the suffix for each bit:
    O(sites × (prefix + 64 × suffix)) instead of O(64 × sites × run).

    Dependent-cone replay goes one step further. Programs built by
    [Ftb_ir.Pipeline.to_program] additionally carry a cone plan
    ({!Ftb_trace.Program.cone}): per injection site, the precomputed
    forward slice of the site's event through the golden dataflow. Where
    the plan is exact (the cone stays off float branches; there is no
    size limit), all of a site's cases are classified in one pass over
    the cone, one lane per case, against recorded golden operands — no
    prefix, no suffix, no output materialization. Sites the plan
    declines, fuel-limited campaigns and stochastic models take the
    snapshot/per-case paths, and so does a site whose cone evaluation
    raises (the snapshot path's own containment then gives each case its
    real outcome). [?cone:false] disables the fast path entirely
    (differential testing, benchmarking the tiers against each other).

    Correctness bar: outcome bytes are bit-identical to the serial engine
    ({!Ground_truth.run}) — the snapshot carries the exact context
    position and remaining fuel, the replay uses the same classification
    path ({!Ftb_trace.Runner.outcome_of_run_contained}), cone replay
    reproduces guard crashes and norm classification exactly, and
    programs without either capability transparently fall back to
    per-case full re-execution. *)

val site_into :
  ?fuel:int ->
  ?cone:bool ->
  Ftb_trace.Golden.t ->
  site:int ->
  Bytes.t ->
  pos:int ->
  unit
(** [site_into golden ~site buf ~pos] computes the outcome bytes of the
    site's 64 bit-flip cases (bit 0 first) into [buf.[pos..pos+63]],
    via cone replay when the program carries an exact plan for the site
    (and [cone], default [true], permits), else batching over one shared
    prefix when the program is resumable. A prefix crash (the fuel
    watchdog firing before the injection point) is replicated to all 64
    bits — each case would follow the identical path to the identical
    crash. Raises [Invalid_argument] when [site] is out of range or the
    buffer slice does not fit. *)

val range_into :
  ?fuel:int ->
  ?cone:bool ->
  Ftb_trace.Golden.t ->
  lo:int ->
  hi:int ->
  Bytes.t ->
  off:int ->
  unit
(** [range_into golden ~lo ~hi buf ~off] computes outcome bytes for the
    dense case range [lo, hi) into [buf] starting at [off] (case [c] lands
    at [off + c - lo]). Whole sites inside the range are batched via
    {!site_into}; ragged edges at non-site-aligned bounds (shard
    boundaries) run per-case. The campaign engine's default shard runner
    is exactly this. *)

val site_into_model :
  ?fuel:int ->
  ?cone:bool ->
  Models.spec ->
  Ftb_trace.Golden.t ->
  site:int ->
  Bytes.t ->
  pos:int ->
  unit
(** {!site_into} generalized to an arbitrary fault model: computes the
    site's [Models.spec_width] outcome bytes. Discrete models take the
    cone fast path where exact (their corruption is a pure function of
    the golden value) and otherwise batch over the shared prefix at their
    own width; stochastic models (and non-resumable programs) fall back
    to per-case {!Ground_truth.case_byte_model}. [Bit_flip_64] dispatches
    to {!site_into} itself — byte- and cost-identical. *)

val range_into_model :
  ?fuel:int ->
  ?cone:bool ->
  Models.spec ->
  Ftb_trace.Golden.t ->
  lo:int ->
  hi:int ->
  Bytes.t ->
  off:int ->
  unit
(** {!range_into} over the model's dense case space
    ([sites * spec_width]); whole sites batch via {!site_into_model},
    ragged shard edges run per-case. The campaign engine's default shard
    runner under a non-default model. *)

val ground_truth :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?fuel:int ->
  ?cone:bool ->
  ?batched:bool ->
  Ftb_trace.Golden.t ->
  Ground_truth.t
(** Exhaustive campaign over the full sample space, batched and pooled:
    sites are work-stolen one at a time off the domain pool ([pool]
    defaults to {!Parallel.Pool.global}, [domains] to
    {!Parallel.default_domains}; [domains:1] without an explicit pool runs
    serially on the calling domain). [batched:false] forces per-case full
    re-execution (the [Parallel.ground_truth] strategy) and [cone:false]
    keeps batching but disables cone replay — useful for benchmarking the
    engine tiers against each other. Outcome bytes are bit-identical
    across every combination of batched × pooled × cone. *)

val ground_truth_model :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?fuel:int ->
  ?cone:bool ->
  ?batched:bool ->
  Models.spec ->
  Ftb_trace.Golden.t ->
  Ground_truth.t
(** {!ground_truth} under an arbitrary fault model ([Bit_flip_64]
    dispatches to it exactly). The result's byte width is the model's
    [spec_width]. *)
