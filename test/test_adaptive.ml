module Adaptive = Ftb_core.Adaptive
module Boundary = Ftb_core.Boundary
module Info = Ftb_core.Info
module Sample_run = Ftb_inject.Sample_run
module Fault = Ftb_trace.Fault
module Runner = Ftb_trace.Runner
module Predict = Ftb_core.Predict
module Ground_truth = Ftb_inject.Ground_truth
module Golden = Ftb_trace.Golden
module Rng = Ftb_util.Rng

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let small_config =
  { Adaptive.default_config with Adaptive.round_fraction = 0.02; max_rounds = 50 }

let test_runs_and_terminates () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:1) g in
  Alcotest.(check bool) "some samples drawn" true (Array.length r.Adaptive.samples > 0);
  Alcotest.(check bool) "fraction in (0,1]" true
    (r.Adaptive.sample_fraction > 0. && r.Adaptive.sample_fraction <= 1.);
  Alcotest.(check bool) "rounds positive" true (r.Adaptive.rounds > 0)

let test_no_duplicate_samples () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:2) g in
  let module S = Set.Make (Int) in
  let cases =
    Array.to_list (Array.map (fun s -> Ftb_trace.Fault.to_case s.Ftb_inject.Sample_run.fault) r.Adaptive.samples)
  in
  Alcotest.(check int) "all samples distinct" (List.length cases)
    (S.cardinal (S.of_list cases))

let test_sample_count_matches_fraction () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:3) g in
  Helpers.check_close ~eps:1e-12 "fraction consistent with count"
    (float_of_int (Array.length r.Adaptive.samples) /. float_of_int (Golden.cases g))
    r.Adaptive.sample_fraction

let test_prediction_close_to_truth_on_monotone_program () =
  let g = Lazy.force golden in
  let t = Ground_truth.run g in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:4) g in
  let obs = Predict.observations_of_samples r.Adaptive.samples in
  let predicted =
    Predict.overall_sdc_ratio ~policy:Predict.Observed_all ~observations:obs
      r.Adaptive.boundary g
  in
  let truth = Ground_truth.sdc_ratio t in
  Alcotest.(check bool)
    (Printf.sprintf "prediction %.3f within 0.1 of truth %.3f" predicted truth)
    true
    (abs_float (predicted -. truth) < 0.1)

let test_uses_fewer_samples_than_exhaustive () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:5) g in
  Alcotest.(check bool) "adaptive needs a strict subset of the space" true
    (r.Adaptive.sample_fraction < 1.)

let test_invalid_configs () =
  let g = Lazy.force golden in
  let bad fraction = { small_config with Adaptive.round_fraction = fraction } in
  (match Adaptive.run ~config:(bad 0.) (Rng.create ~seed:6) g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "round_fraction 0 accepted");
  (match Adaptive.run ~config:(bad 1.5) (Rng.create ~seed:6) g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "round_fraction > 1 accepted");
  match
    Adaptive.run ~config:{ small_config with Adaptive.max_rounds = 0 } (Rng.create ~seed:6) g
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_rounds 0 accepted"

let test_on_round_callback () =
  let g = Lazy.force golden in
  let calls = ref 0 in
  let r =
    Adaptive.run ~config:small_config
      ~on_round:(fun ~round:_ ~drawn ~masked ~sdc ~crash ->
        incr calls;
        Alcotest.(check int) "round tallies partition the draw" drawn (masked + sdc + crash))
      (Rng.create ~seed:7) g
  in
  Alcotest.(check int) "one callback per round" r.Adaptive.rounds !calls

let test_unbiased_variant_runs () =
  let g = Lazy.force golden in
  let r =
    Adaptive.run
      ~config:{ small_config with Adaptive.bias = false; filter = false }
      (Rng.create ~seed:8) g
  in
  Alcotest.(check bool) "uniform candidate selection also terminates" true
    (r.Adaptive.rounds > 0)

let test_deterministic_given_seed () =
  let g = Lazy.force golden in
  let a = Adaptive.run ~config:small_config (Rng.create ~seed:9) g in
  let b = Adaptive.run ~config:small_config (Rng.create ~seed:9) g in
  Alcotest.(check int) "same sample count" (Array.length a.Adaptive.samples)
    (Array.length b.Adaptive.samples);
  Alcotest.(check int) "same rounds" a.Adaptive.rounds b.Adaptive.rounds

(* --- incremental fold = batch rebuild ------------------------------ *)

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_boundary (a : Boundary.t) (b : Boundary.t) =
  same_floats a.Boundary.thresholds b.Boundary.thresholds
  && a.Boundary.support = b.Boundary.support

let same_info (a : Info.t) (b : Info.t) =
  same_floats a.Info.injected b.Info.injected && same_floats a.Info.propagated b.Info.propagated

(* Absorb [batches] one at a time; after each, the accumulators must equal
   [Boundary.infer] / [Info.collect] over the whole prefix. *)
let incremental_matches_rebuild ~filter golden batches =
  let sites = Golden.sites golden in
  let bacc = Boundary.Acc.create ~filter ~sites () and iacc = Info.Acc.create golden in
  let prefix = ref [||] in
  List.for_all
    (fun batch ->
      Boundary.Acc.absorb bacc batch;
      Info.Acc.absorb iacc batch;
      prefix := Array.append !prefix batch;
      same_boundary (Boundary.Acc.snapshot bacc) (Boundary.infer ~filter ~sites !prefix)
      && same_info (Info.Acc.snapshot iacc) (Info.collect golden !prefix))
    batches

(* cg exercises wide propagation; the non-monotonic toy has masked
   errors above SDC ones at one site, so a batch order that folds the
   large masked error first is later disqualified by the filter. *)
let fold_fixtures =
  lazy
    (let cg =
       Golden.run
         (Ftb_kernels.Cg.program { Ftb_kernels.Cg.grid = 4; iterations = 6; tolerance = 1e-4 })
     in
     let nm = Golden.run (Helpers.nonmonotonic_program ()) in
     let cases =
       Rng.sample_without_replacement (Rng.create ~seed:21) ~n:(Golden.cases cg) ~k:600
     in
     [|
       (cg, Array.map (Sample_run.run_case cg) cases);
       (nm, Array.init (Golden.cases nm) (Sample_run.run_case nm));
     |])

let prop_incremental_fold =
  QCheck.Test.make ~name:"incremental boundary/info = rebuild after every batch" ~count:60
    QCheck.(triple small_int bool bool)
    (fun (seed, filter, toy) ->
      let golden, all = (Lazy.force fold_fixtures).(if toy then 1 else 0) in
      let rng = Rng.create ~seed in
      let samples = Array.copy all in
      Rng.shuffle rng samples;
      let rec cut i acc =
        if i >= Array.length samples then List.rev acc
        else begin
          let len = min (1 + Rng.int rng (Array.length samples / 8)) (Array.length samples - i) in
          cut (i + len) (Array.sub samples i len :: acc)
        end
      in
      incremental_matches_rebuild ~filter golden (cut 0 []))

let sample ~site ~outcome ~error ?propagation () =
  {
    Sample_run.fault = Fault.make ~site ~bit:0;
    outcome;
    crash_reason = None;
    injected_error = error;
    propagation;
  }

let test_floor_drop_disqualifies_earlier_evidence () =
  let g = Golden.run (Helpers.linear_program ()) in
  let masked start devs =
    sample ~site:start ~outcome:Runner.Masked ~error:devs.(0) ~propagation:(start, devs) ()
  in
  let sdc site error = sample ~site ~outcome:Runner.Sdc ~error () in
  let batches =
    [
      [| masked 0 [| 0.5; 0.4; 0.3 |]; sdc 1 10. |];
      (* A smaller SDC error at site 1 rejects the 0.4 folded a batch ago. *)
      [| sdc 1 0.2; masked 2 [| 0.25 |] |];
      [| masked 1 [| 0.1; 0.05 |] |];
    ]
  in
  Alcotest.(check bool) "matches rebuild after every batch" true
    (incremental_matches_rebuild ~filter:true g batches);
  let acc = Boundary.Acc.create ~filter:true ~sites:(Golden.sites g) () in
  List.iteri
    (fun i batch ->
      Boundary.Acc.absorb acc batch;
      let b = Boundary.Acc.snapshot acc in
      match i with
      | 0 ->
          Helpers.check_close "site 1 before the drop" 0.4 (Boundary.threshold b 1);
          Alcotest.(check int) "site 1 support before" 1 b.Boundary.support.(1)
      | 1 ->
          Helpers.check_close "site 1 after the drop" 0. (Boundary.threshold b 1);
          Alcotest.(check int) "site 1 support after" 0 b.Boundary.support.(1);
          Helpers.check_close "site 2 keeps the max" 0.3 (Boundary.threshold b 2);
          Alcotest.(check int) "site 2 support" 2 b.Boundary.support.(2)
      | _ -> Helpers.check_close "new evidence below the floor" 0.1 (Boundary.threshold b 1))
    batches

let test_round_snapshots_are_frozen () =
  let g = Lazy.force golden in
  let state = Adaptive.state_create ~config:small_config g in
  let rng = Rng.create ~seed:10 in
  let round () =
    match Adaptive.plan_round state rng with
    | None -> Alcotest.fail "pool exhausted too early"
    | Some cases ->
        let samples = Array.map (Sample_run.run_case g) cases in
        ignore (Adaptive.fold_round state ~cases ~samples)
  in
  let sites = Golden.sites g in
  for _ = 1 to 3 do
    round ();
    let before = Adaptive.state_boundary state in
    let frozen = Boundary.copy before in
    Alcotest.(check bool) "state boundary = rebuild over the prefix" true
      (same_boundary before
         (Boundary.infer ~filter:true ~sites (Adaptive.state_samples state)));
    round ();
    Alcotest.(check bool) "next round leaves the snapshot alone" true
      (same_boundary before frozen)
  done

let suite =
  [
    Alcotest.test_case "runs and terminates" `Quick test_runs_and_terminates;
    Alcotest.test_case "no duplicate samples" `Quick test_no_duplicate_samples;
    Alcotest.test_case "fraction consistent" `Quick test_sample_count_matches_fraction;
    Alcotest.test_case "prediction close to truth" `Quick
      test_prediction_close_to_truth_on_monotone_program;
    Alcotest.test_case "fewer samples than exhaustive" `Quick
      test_uses_fewer_samples_than_exhaustive;
    Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
    Alcotest.test_case "on_round callback" `Quick test_on_round_callback;
    Alcotest.test_case "unbiased variant" `Quick test_unbiased_variant_runs;
    Alcotest.test_case "deterministic given seed" `Quick test_deterministic_given_seed;
    Alcotest.test_case "floor drop disqualifies earlier evidence" `Quick
      test_floor_drop_disqualifies_earlier_evidence;
    Alcotest.test_case "round snapshots are frozen" `Quick test_round_snapshots_are_frozen;
    Helpers.qcheck_to_alcotest prop_incremental_fold;
  ]
