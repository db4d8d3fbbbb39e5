module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Sample_run = Ftb_inject.Sample_run

type config = {
  round_fraction : float;
  stop_sdc_fraction : float;
  max_rounds : int;
  filter : bool;
  bias : bool;
}

let default_config =
  { round_fraction = 0.001; stop_sdc_fraction = 0.95; max_rounds = 200; filter = true; bias = true }

type stop_reason = Converged | Pool_exhausted | Round_cap

let stop_reason_to_string = function
  | Converged -> "converged"
  | Pool_exhausted -> "pool-exhausted"
  | Round_cap -> "round-cap"

let stop_reason_of_string = function
  | "converged" -> Some Converged
  | "pool-exhausted" -> Some Pool_exhausted
  | "round-cap" -> Some Round_cap
  | _ -> None

type result = {
  boundary : Boundary.t;
  samples : Sample_run.t array;
  rounds : int;
  sample_fraction : float;
  stop_reason : stop_reason;
}

let check_config config =
  if not (config.round_fraction > 0. && config.round_fraction <= 1.) then
    invalid_arg "Adaptive.run: round_fraction must be in (0, 1]";
  if not (config.stop_sdc_fraction > 0. && config.stop_sdc_fraction <= 1.) then
    invalid_arg "Adaptive.run: stop_sdc_fraction must be in (0, 1]";
  if config.max_rounds <= 0 then invalid_arg "Adaptive.run: max_rounds must be positive"

(* The round state machine. [run] below is a thin serial driver over it;
   the distributed planner ([Ftb_plan.Adaptive_engine]) drives the same
   machine with fleet-executed rounds. Keeping plan and fold here — and
   the RNG consumed by nothing but [plan_round] — is what makes the
   distributed path bit-identical to the serial oracle: outcomes are pure
   functions of (golden, spec, case), so *where* a case runs cannot
   change what the next round draws. *)

type state = {
  config : config;
  total : int;
  width : int;
  round_size : int;
  errors : float array;  (* injected error of every case, computed once *)
  sampled : Bytes.t;  (* one byte per case, set once the case is drawn *)
  pool : int array;  (* scratch for [plan_round]'s candidate cases *)
  boundary : Boundary.Acc.t;
  info : Info.Acc.t;
  mutable batches_rev : Sample_run.t array list;
  mutable sample_count : int;
  mutable rounds : int;
}

let state_create ?(config = default_config) ?(spec = Models.default_spec) golden =
  check_config config;
  let sites = Golden.sites golden in
  let total = Models.total_cases spec ~sites in
  let round_size =
    max 1 (int_of_float (Float.ceil (config.round_fraction *. float_of_int total)))
  in
  {
    config;
    total;
    width = Models.spec_width spec;
    round_size;
    errors = Array.init total (fun case -> Ground_truth.injected_error_model spec golden ~case);
    sampled = Bytes.make total '\000';
    pool = Array.make total 0;
    boundary = Boundary.Acc.create ~filter:config.filter ~sites ();
    info = Info.Acc.create golden;
    batches_rev = [];
    sample_count = 0;
    rounds = 0;
  }

(* Mark a batch's cases drawn and fold its samples into the boundary and
   the information counts: the cost of a batch is its own size (plus the
   sites whose filter floor it lowers), never the samples before it. *)
let absorb state ~cases samples =
  Array.iter (fun case -> Bytes.set state.sampled case '\001') cases;
  state.batches_rev <- samples :: state.batches_rev;
  state.sample_count <- state.sample_count + Array.length samples;
  Boundary.Acc.absorb state.boundary samples;
  Info.Acc.absorb state.info samples

let case_of_sample state (s : Sample_run.t) =
  (s.Sample_run.fault.Fault.site * state.width) + s.Sample_run.fault.Fault.bit

let state_restore ?config ?spec golden ~rounds samples =
  let state = state_create ?config ?spec golden in
  absorb state ~cases:(Array.map (case_of_sample state) samples) samples;
  state.rounds <- rounds;
  state

let state_rounds state = state.rounds
let state_sample_count state = state.sample_count
let state_total state = state.total

let state_boundary state = Boundary.Acc.snapshot state.boundary

let state_samples state = Array.concat (List.rev state.batches_rev)

let plan_round state rng =
  (* Candidate pool, in ascending case order: unsampled cases the current
     boundary does not already predict masked — injecting those would
     teach us nothing new about the boundary's upper side. *)
  let width = state.width in
  let count = ref 0 in
  for site = 0 to (state.total / width) - 1 do
    let threshold = Boundary.Acc.threshold state.boundary site in
    for case = site * width to ((site + 1) * width) - 1 do
      if Bytes.get state.sampled case = '\000' && not (state.errors.(case) <= threshold) then begin
        state.pool.(!count) <- case;
        incr count
      end
    done
  done;
  let count = !count in
  if count = 0 then None
  else begin
    let k = min state.round_size count in
    let drawn_indices =
      if state.config.bias then begin
        let weights =
          Array.init count (fun i ->
              1. /. Float.max (Info.Acc.total state.info (state.pool.(i) / width)) 1.)
        in
        Ftb_util.Sampling.weighted_without_replacement rng ~weights ~k
      end
      else Ftb_util.Sampling.uniform rng ~n:count ~k
    in
    Some (Array.map (fun idx -> state.pool.(idx)) drawn_indices)
  end

let round_verdict config ~rounds ~drawn ~masked ~sdc =
  let sdc_fraction = float_of_int sdc /. float_of_int drawn in
  if masked = 0 || sdc_fraction >= config.stop_sdc_fraction then Some Converged
  else if rounds >= config.max_rounds then Some Round_cap
  else None

let fold_round ?on_round state ~cases ~samples =
  let k = Array.length cases in
  if Array.length samples <> k then
    invalid_arg
      (Printf.sprintf "Adaptive.fold_round: %d samples for %d drawn cases"
         (Array.length samples) k);
  if k = 0 then invalid_arg "Adaptive.fold_round: empty round";
  let masked, sdc, crash = Sample_run.count_outcomes samples in
  state.rounds <- state.rounds + 1;
  (match on_round with
  | Some f -> f ~round:state.rounds ~drawn:k ~masked ~sdc ~crash
  | None -> ());
  absorb state ~cases samples;
  match round_verdict state.config ~rounds:state.rounds ~drawn:k ~masked ~sdc with
  | Some reason -> `Stop reason
  | None -> `Continue

let finish state stop_reason =
  {
    boundary = state_boundary state;
    samples = state_samples state;
    rounds = state.rounds;
    sample_fraction = float_of_int state.sample_count /. float_of_int state.total;
    stop_reason;
  }

let run ?(config = default_config) ?on_round ?(spec = Models.default_spec) ?fuel rng golden =
  let state = state_create ~config ~spec golden in
  let stop = ref Round_cap in
  (try
     while state.rounds < config.max_rounds do
       match plan_round state rng with
       | None ->
           stop := Pool_exhausted;
           raise Exit
       | Some cases -> (
           let samples = Array.map (Sample_run.run_case_model ?fuel spec golden) cases in
           match fold_round ?on_round state ~cases ~samples with
           | `Stop reason ->
               stop := reason;
               raise Exit
           | `Continue -> ())
     done
   with Exit -> ());
  finish state !stop
