(* The batched campaign executor: prefix-snapshot bit batching must be
   byte-identical to full per-case re-execution, for resumable (IR) and
   non-resumable (closure) programs alike, under any fuel budget. *)

module Golden = Ftb_trace.Golden
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Parallel = Ftb_inject.Parallel

let bits = Ftb_util.Bits.bits_per_double

let ir_golden =
  lazy
    (Golden.run
       (Ftb_ir.Ir.to_program (Ftb_ir.Programs.stencil3 ~n:8 ~sweeps:2 ~seed:9 ~tolerance:1e-6)))

let closure_golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let serial_bytes ?fuel golden =
  let total = Golden.cases golden in
  let buf = Bytes.create total in
  for case = 0 to total - 1 do
    Bytes.set buf case (Ground_truth.case_byte ?fuel golden case)
  done;
  buf

let check_site_identity ?fuel what golden =
  let expected = serial_bytes ?fuel golden in
  let buf = Bytes.make (Golden.cases golden) '\255' in
  for site = 0 to Golden.sites golden - 1 do
    Executor.site_into ?fuel golden ~site buf ~pos:(site * bits)
  done;
  Alcotest.(check bool) (what ^ ": batched bytes = serial bytes") true
    (Bytes.equal expected buf)

let test_site_into_matches_serial () =
  check_site_identity "ir program" (Lazy.force ir_golden)

let test_site_into_closure_fallback () =
  (* Closure kernels have no resumable capability; same bytes, via the
     per-case fallback. *)
  let golden = Lazy.force closure_golden in
  Alcotest.(check bool) "fixture is not resumable" true
    (golden.Golden.program.Ftb_trace.Program.resumable = None);
  check_site_identity "closure program" golden

let test_site_into_under_fuel () =
  let golden = Lazy.force ir_golden in
  let sites = Golden.sites golden in
  (* Budgets that exhaust inside the prefix, exactly at a site, and never:
     the batched path must reproduce the serial fuel-crash bytes in all
     three regimes. *)
  List.iter
    (fun fuel -> check_site_identity ~fuel (Printf.sprintf "fuel %d" fuel) golden)
    [ 1; 2; sites / 2; sites; sites + 1; 10 * sites ]

let test_range_into_ragged_bounds () =
  let golden = Lazy.force ir_golden in
  let total = Golden.cases golden in
  let expected = serial_bytes golden in
  List.iter
    (fun (lo, hi) ->
      let buf = Bytes.make (hi - lo) '\255' in
      Executor.range_into golden ~lo ~hi buf ~off:0;
      Alcotest.(check bool)
        (Printf.sprintf "range [%d, %d) = serial slice" lo hi)
        true
        (Bytes.equal (Bytes.sub expected lo (hi - lo)) buf))
    [
      (0, total);
      (0, 0);
      (1, 63);  (* inside one site *)
      (63, 65);  (* straddles a site boundary *)
      (1, total - 1);
      (64, 192);  (* exactly two whole sites *)
      (37, 37 + 128);
    ]

let test_ground_truth_batched_pooled_identity () =
  let golden = Lazy.force ir_golden in
  let reference = Ground_truth.run golden in
  List.iter
    (fun (what, gt) ->
      Alcotest.(check bool) (what ^ " = serial engine") true
        (Bytes.equal reference.Ground_truth.outcomes gt.Ground_truth.outcomes))
    [
      ("batched serial", Executor.ground_truth ~domains:1 golden);
      ("batched pooled", Executor.ground_truth ~domains:4 golden);
      ("per-case pooled", Executor.ground_truth ~domains:4 ~batched:false golden);
      ("explicit pool", Executor.ground_truth ~pool:(Parallel.Pool.global ~domains:3 ()) golden);
    ]

let test_ground_truth_fuel_identity () =
  let golden = Lazy.force ir_golden in
  let fuel = Golden.sites golden / 2 in
  let reference = Ground_truth.run ~fuel golden in
  let batched = Executor.ground_truth ~domains:4 ~fuel golden in
  Alcotest.(check bool) "fuel-bound batched pooled = serial" true
    (Bytes.equal reference.Ground_truth.outcomes batched.Ground_truth.outcomes)

let test_site_into_validation () =
  let golden = Lazy.force ir_golden in
  let buf = Bytes.create (Golden.cases golden) in
  (match Executor.site_into golden ~site:(-1) buf ~pos:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative site accepted");
  (match Executor.site_into golden ~site:0 (Bytes.create 63) ~pos:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short buffer accepted");
  match Executor.range_into golden ~lo:0 ~hi:(Golden.cases golden + 1) buf ~off:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range hi accepted"

(* ------------------------------------------------------------------ *)
(* Model-aware executor: for every fault model, the batched path (whole
   sites via prefix snapshots) must be byte-identical to the per-case
   model-aware serial reference — the regression the old code could not
   even express (it silently assumed 64 cases per site). *)

module Models = Ftb_inject.Models

let model_specs =
  [
    { Models.model = Models.Bit_flip_64; seed = 0 };
    { Models.model = Models.Bit_flip_32; seed = 0 };
    { Models.model = Models.Adjacent_burst_2; seed = 0 };
    { Models.model = Models.Random_value { lo = -100.; hi = 100. }; seed = 11 };
  ]

let serial_bytes_model ?fuel spec golden =
  let total = Models.total_cases spec ~sites:(Golden.sites golden) in
  let buf = Bytes.create total in
  for case = 0 to total - 1 do
    Bytes.set buf case (Ground_truth.case_byte_model ?fuel spec golden case)
  done;
  buf

let test_model_batched_matches_serial () =
  List.iter
    (fun (what, golden) ->
      List.iter
        (fun spec ->
          let label =
            Printf.sprintf "%s under %s" what (Models.spec_name spec)
          in
          let expected = serial_bytes_model spec golden in
          let gt = Executor.ground_truth_model ~domains:1 spec golden in
          Alcotest.(check int)
            (label ^ ": case-space size")
            (Models.total_cases spec ~sites:(Golden.sites golden))
            (Ground_truth.cases gt);
          Alcotest.(check bool)
            (label ^ ": batched bytes = per-case bytes")
            true
            (Bytes.equal expected gt.Ground_truth.outcomes))
        model_specs)
    [ ("ir program", Lazy.force ir_golden); ("closure program", Lazy.force closure_golden) ]

let test_model_default_dispatch_is_historical_path () =
  (* Bit_flip_64 must not merely be equivalent — it dispatches to the
     exact pre-model executor, so its bytes match byte for byte. *)
  let golden = Lazy.force ir_golden in
  let gt = Executor.ground_truth ~domains:1 golden in
  let gtm = Executor.ground_truth_model ~domains:1 Models.default_spec golden in
  Alcotest.(check bool) "default model = historical executor" true
    (Bytes.equal gt.Ground_truth.outcomes gtm.Ground_truth.outcomes)

let test_model_range_into_ragged_bounds () =
  let golden = Lazy.force ir_golden in
  List.iter
    (fun spec ->
      let width = Models.spec_width spec in
      let total = Models.total_cases spec ~sites:(Golden.sites golden) in
      let expected = serial_bytes_model spec golden in
      List.iter
        (fun (lo, hi) ->
          let lo = min lo total and hi = min hi total in
          if lo <= hi then begin
            let buf = Bytes.make (hi - lo) '\255' in
            Executor.range_into_model spec golden ~lo ~hi buf ~off:0;
            Alcotest.(check bool)
              (Printf.sprintf "%s: range [%d, %d) = serial slice"
                 (Models.spec_name spec) lo hi)
              true
              (Bytes.equal (Bytes.sub expected lo (hi - lo)) buf)
          end)
        [
          (0, total);
          (0, 0);
          (1, width - 1);  (* inside one site *)
          (width - 1, width + 1);  (* straddles a site boundary *)
          (1, total - 1);
          (width, 3 * width);  (* whole sites *)
          (width / 2, (width / 2) + (2 * width));
        ])
    model_specs

let test_model_fuel_identity () =
  let golden = Lazy.force ir_golden in
  let fuel = Golden.sites golden / 2 in
  List.iter
    (fun spec ->
      let expected = serial_bytes_model ~fuel spec golden in
      let gt = Executor.ground_truth_model ~domains:2 ~fuel spec golden in
      Alcotest.(check bool)
        (Printf.sprintf "%s under fuel %d" (Models.spec_name spec) fuel)
        true
        (Bytes.equal expected gt.Ground_truth.outcomes))
    model_specs

let test_model_stochastic_replay_identical () =
  (* Two independent executions of the stochastic model — different
     batching, different domain counts — must produce identical bytes:
     the per-case RNG derivation leaves nothing to scheduling. *)
  let golden = Lazy.force ir_golden in
  let spec = { Models.model = Models.Random_value { lo = -1.; hi = 1. }; seed = 99 } in
  let a = Executor.ground_truth_model ~domains:1 spec golden in
  let b = Executor.ground_truth_model ~domains:4 spec golden in
  let c = Executor.ground_truth_model ~domains:2 ~batched:false spec golden in
  Alcotest.(check bool) "serial = pooled" true
    (Bytes.equal a.Ground_truth.outcomes b.Ground_truth.outcomes);
  Alcotest.(check bool) "serial = per-case pooled" true
    (Bytes.equal a.Ground_truth.outcomes c.Ground_truth.outcomes);
  (* And a different seed must actually change the injected values
     (outcome bytes may coincide — near-everything is SDC here). *)
  let differs =
    Array.exists
      (fun case ->
        Models.case_corrupt spec ~case 0.
        <> Models.case_corrupt { spec with Models.seed = 100 } ~case 0.)
      (Array.init 64 Fun.id)
  in
  Alcotest.(check bool) "seed changes the drawn values" true differs

(* Property: for random small IR kernels and random fuel budgets, the
   batched executor's bytes equal the serial engine's on every case. *)
let prop_batched_identity =
  let gen =
    QCheck.make
      ~print:(fun (k, n, seed, fuel) -> Printf.sprintf "kernel %d, n %d, seed %d, fuel %d" k n seed fuel)
      QCheck.Gen.(
        quad (int_bound 4) (int_range 2 6) (int_range 0 1000) (int_range 0 64))
  in
  QCheck.Test.make ~name:"batched executor = serial engine (random kernels)" ~count:25 gen
    (fun (kernel, n, seed, fuel) ->
      let ir =
        match kernel with
        | 0 -> Ftb_ir.Programs.dot ~n ~seed ~tolerance:1e-9
        | 1 -> Ftb_ir.Programs.saxpy ~n ~seed ~tolerance:1e-9
        | 2 -> Ftb_ir.Programs.stencil3 ~n:(n + 2) ~sweeps:2 ~seed ~tolerance:1e-9
        | 3 -> Ftb_ir.Programs.matvec ~n ~seed ~tolerance:1e-9
        | _ -> Ftb_ir.Programs.normalize ~n ~seed ~tolerance:1e-9
      in
      let golden = Golden.run (Ftb_ir.Ir.to_program ir) in
      let fuel = if fuel = 0 then None else Some fuel in
      let reference = serial_bytes ?fuel golden in
      let batched = (Executor.ground_truth ?fuel ~domains:1 golden).Ground_truth.outcomes in
      Bytes.equal reference batched)

(* Cone containment: a cone plan whose batched evaluator raises must not
   stamp [Exception_raised] on every case of the site. The executor reruns
   such a site through the snapshot path, so the bytes equal the same
   program's with the cone tier switched off. *)
let test_raising_cone_reruns_site () =
  let program =
    Ftb_ir.Pipeline.to_program
      (Ftb_ir.Programs.stencil3 ~n:6 ~sweeps:2 ~seed:4 ~tolerance:1e-6)
  in
  let force () =
    Some
      {
        Ftb_trace.Program.cone_sites = Golden.sites (Golden.run program);
        cone_case = (fun ~site:_ -> Some (fun _ -> failwith "cone evaluator fault"));
      }
  in
  let raising = Golden.run (Ftb_trace.Program.with_cone program force) in
  let plain = Golden.run program in
  List.iter
    (fun spec ->
      let got = Executor.ground_truth_model ~domains:1 spec raising in
      let want = Executor.ground_truth_model ~domains:1 ~cone:false spec plain in
      Alcotest.(check bool)
        (Models.spec_name spec ^ ": raising cone = cone:false bytes")
        true
        (Bytes.equal want.Ground_truth.outcomes got.Ground_truth.outcomes))
    (List.map (fun model -> { Models.model; seed = 0 }) Models.all_discrete)

let suite =
  [
    Alcotest.test_case "site_into = serial bytes" `Quick test_site_into_matches_serial;
    Alcotest.test_case "closure fallback = serial bytes" `Quick
      test_site_into_closure_fallback;
    Alcotest.test_case "fuel regimes = serial bytes" `Quick test_site_into_under_fuel;
    Alcotest.test_case "range_into handles ragged bounds" `Quick
      test_range_into_ragged_bounds;
    Alcotest.test_case "ground_truth: batched x pooled identity" `Quick
      test_ground_truth_batched_pooled_identity;
    Alcotest.test_case "ground_truth: fuel identity" `Quick test_ground_truth_fuel_identity;
    Alcotest.test_case "argument validation" `Quick test_site_into_validation;
    Alcotest.test_case "per-model batched = per-case serial" `Quick
      test_model_batched_matches_serial;
    Alcotest.test_case "default model dispatches to historical path" `Quick
      test_model_default_dispatch_is_historical_path;
    Alcotest.test_case "model range_into handles ragged bounds" `Quick
      test_model_range_into_ragged_bounds;
    Alcotest.test_case "model fuel identity" `Quick test_model_fuel_identity;
    Alcotest.test_case "stochastic replay is scheduling-independent" `Quick
      test_model_stochastic_replay_identical;
    Alcotest.test_case "raising cone plan reruns the site" `Quick
      test_raising_cone_reruns_site;
    QCheck_alcotest.to_alcotest prop_batched_identity;
  ]
