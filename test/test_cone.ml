(* Dependent-cone replay: campaign outcome bytes through the optimized,
   cone-enabled fast path must be bit-identical to the reference — the
   structured tree-walking interpreter run per-case — for every discrete
   fault model, and the fallbacks (fuel, stochastic models, cone:false)
   must change nothing. This is the acceptance bar of the specializer:
   same bytes, only faster. *)

module Ir = Ftb_ir.Ir
module Pipeline = Ftb_ir.Pipeline
module Golden = Ftb_trace.Golden
module Program = Ftb_trace.Program
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Ir_kernels = Ftb_kernels.Ir_kernels

(* Tiny kernels, mirroring [Test_ir_kernels.tiny], plus [normalize]
   (whose float branch forces cone fallback on branch-feeding sites). *)
let kernels =
  [
    ("ir.cg", fun () -> Ir_kernels.cg ~grid:3 ~iterations:3 ~tolerance:1e-4);
    ("ir.lu", fun () -> Ir_kernels.lu ~n:6 ~block:3 ~seed:7 ~tolerance:1e-4);
    ("ir.fft", fun () -> Ir_kernels.fft ~n1:4 ~n2:4 ~seed:11 ~tolerance:1.0);
    ("ir.jacobi", fun () -> Ir_kernels.jacobi ~grid:3 ~sweeps:2 ~tolerance:1e-4);
    ("ir.gemm", fun () -> Ir_kernels.gemm ~n:4 ~block:2 ~seed:21 ~tolerance:1e-3);
    ("ir.matmul", fun () -> Ir_kernels.matmul ~n:4 ~seed:9 ~tolerance:1e-3);
    ("ir.stencil", fun () -> Ir_kernels.stencil ~size:4 ~sweeps:2 ~seed:3 ~tolerance:1e-4);
    ("ir.normalize", fun () -> Ftb_ir.Programs.normalize ~n:12 ~seed:15 ~tolerance:1e-9);
  ]

(* Both lowerings of each kernel, built once: the optimized compiled
   program with the cone plan attached, and the reference interpreter. *)
let fixtures =
  lazy
    (List.map
       (fun (name, build) ->
         let ir = build () in
         ( name,
           Golden.run (Pipeline.to_program ir),
           Golden.run (Ir.to_program_interpreted ir) ))
       kernels)

let discrete_specs =
  List.map (fun model -> { Models.model; seed = 0 }) Models.all_discrete

let stochastic_spec = { Models.model = Models.Random_value { lo = -10.; hi = 10. }; seed = 5 }

let reference_bytes ?fuel spec golden =
  let total = Models.total_cases spec ~sites:(Golden.sites golden) in
  let buf = Bytes.create total in
  for case = 0 to total - 1 do
    Bytes.set buf case (Ground_truth.case_byte_model ?fuel spec golden case)
  done;
  buf

let plan_of golden =
  match golden.Golden.program.Program.cone with
  | None -> Alcotest.fail "no cone capability"
  | Some force -> (
      match force () with
      | None -> Alcotest.fail "cone plan failed to build"
      | Some plan -> plan)

let byte_of_cone = function
  | Program.Cone_masked -> '\000'
  | Program.Cone_sdc -> '\001'
  | Program.Cone_crash reason -> Ground_truth.crash_byte reason

(* The plan's own bytes: every accepted site's closure called directly,
   outside the executor's containment, so a closure that raises fails
   the test instead of quietly falling back to the snapshot path.
   Declined sites keep [expected]'s bytes. *)
let direct_bytes spec fast expected =
  let plan = plan_of fast in
  let width = Models.spec_width spec in
  let buf = Bytes.copy expected in
  for site = 0 to plan.Program.cone_sites - 1 do
    match plan.Program.cone_case ~site with
    | None -> ()
    | Some run ->
        let corrupts =
          Array.init width (fun case -> Models.case_corrupt spec ~case:((site * width) + case))
        in
        Array.iteri (fun i o -> Bytes.set buf ((site * width) + i) (byte_of_cone o)) (run corrupts)
  done;
  buf

let check_model ?fuel what spec fast interp =
  let expected = reference_bytes ?fuel spec interp in
  let gt = Executor.ground_truth_model ~domains:1 ?fuel spec fast in
  Alcotest.(check bool)
    (Printf.sprintf "%s under %s%s: cone bytes = interpreted bytes" what
       (Models.spec_name spec)
       (match fuel with None -> "" | Some f -> Printf.sprintf " (fuel %d)" f))
    true
    (Bytes.equal expected gt.Ground_truth.outcomes);
  if fuel = None && not (Models.is_stochastic spec.Models.model) then
    Alcotest.(check bool)
      (Printf.sprintf "%s under %s: closures called directly = interpreted bytes" what
         (Models.spec_name spec))
      true
      (Bytes.equal expected (direct_bytes spec fast expected))

let test_discrete_models_byte_identity () =
  List.iter
    (fun (name, fast, interp) ->
      Alcotest.(check int)
        (name ^ ": same site space")
        (Golden.sites interp) (Golden.sites fast);
      List.iter (fun spec -> check_model name spec fast interp) discrete_specs)
    (Lazy.force fixtures)

let test_stochastic_model_byte_identity () =
  (* Stochastic models never take the cone path; bytes must still match
     the interpreted reference through the per-case fallback. *)
  List.iter
    (fun (name, fast, interp) -> check_model name stochastic_spec fast interp)
    (Lazy.force fixtures)

let test_fuel_forces_fallback_identically () =
  (* Finite fuel disables cone replay (it performs no step bookkeeping);
     the snapshot path must take over with identical bytes. *)
  List.iter
    (fun (name, fast, interp) ->
      let fuel = max 1 (Golden.sites fast / 2) in
      check_model ~fuel name (List.hd discrete_specs) fast interp)
    (Lazy.force fixtures)

let test_cone_flag_changes_nothing () =
  List.iter
    (fun (name, fast, _) ->
      let with_cone = Executor.ground_truth ~domains:1 ~cone:true fast in
      let without = Executor.ground_truth ~domains:1 ~cone:false fast in
      Alcotest.(check bool) (name ^ ": cone:false = cone:true") true
        (Bytes.equal with_cone.Ground_truth.outcomes without.Ground_truth.outcomes))
    (Lazy.force fixtures)

let test_pooled_cone_campaign_identity () =
  (* The cone closures allocate per-site scratch, so domain-parallel
     campaigns must not interfere. *)
  List.iter
    (fun (name, fast, _) ->
      let serial = Executor.ground_truth ~domains:1 fast in
      let pooled = Executor.ground_truth ~domains:4 fast in
      Alcotest.(check bool) (name ^ ": pooled = serial") true
        (Bytes.equal serial.Ground_truth.outcomes pooled.Ground_truth.outcomes))
    (Lazy.force fixtures)

let accepted plan =
  List.filter
    (fun site -> plan.Program.cone_case ~site <> None)
    (List.init plan.Program.cone_sites Fun.id)

let test_cone_plans_exist_and_cover () =
  (* The plan must cover the full site space, and on kernels without
     float branches it must accept (not fall back on) every site —
     otherwise the fast path is partly dead code. *)
  List.iter
    (fun (name, fast, _) ->
      let plan = plan_of fast in
      Alcotest.(check int)
        (name ^ ": plan covers the site space")
        (Golden.sites fast) plan.Program.cone_sites;
      if name <> "ir.normalize" then
        Alcotest.(check int)
          (name ^ ": cone accepts every site")
          plan.Program.cone_sites
          (List.length (accepted plan)))
    (Lazy.force fixtures)

(* Configurations whose big cones a cone-size cap once sent to the
   snapshot tier: every site must now be cone-exact, and its bytes must
   still equal the per-case interpreted reference under every discrete
   model. *)
let test_large_cones_exact () =
  List.iter
    (fun (name, build) ->
      let ir = build () in
      let fast = Golden.run (Pipeline.to_program ir) in
      let interp = Golden.run (Ir.to_program_interpreted ir) in
      let plan = plan_of fast in
      Alcotest.(check int)
        (name ^ ": every site is cone-exact")
        plan.Program.cone_sites
        (List.length (accepted plan));
      List.iter
        (fun spec ->
          (* The per-case interpreted reference, spread over two domains. *)
          let expected =
            (Executor.ground_truth_model ~domains:2 ~batched:false spec interp)
              .Ground_truth.outcomes
          in
          let gt = Executor.ground_truth_model ~domains:1 spec fast in
          let says what = Printf.sprintf "%s under %s: %s = interpreted bytes" name
              (Models.spec_name spec) what
          in
          Alcotest.(check bool) (says "cone bytes") true
            (Bytes.equal expected gt.Ground_truth.outcomes);
          Alcotest.(check bool) (says "closures called directly") true
            (Bytes.equal expected (direct_bytes spec fast expected)))
        discrete_specs)
    [
      ("ir.cg", fun () -> Ir_kernels.cg ~grid:4 ~iterations:6 ~tolerance:1e-4);
      ("ir.lu", fun () -> Ir_kernels.lu ~n:12 ~block:4 ~seed:7 ~tolerance:1e-4);
    ]

let test_huge_cones_run_in_chunks () =
  (* A 12 000-step dot product: the early sites' cones span every later
     event, so 64 lanes of them overflow the per-domain lane budget and
     run in chunks. Checked per case against the interpreter on a few
     sites (a full campaign would take minutes). *)
  let ir = Ftb_ir.Programs.dot ~n:12_000 ~seed:4 ~tolerance:1e-9 in
  let fast = Golden.run (Pipeline.to_program ir) in
  let interp = Golden.run (Ir.to_program_interpreted ir) in
  let plan = plan_of fast in
  let sites = Golden.sites fast in
  List.iter
    (fun spec ->
      let width = Models.spec_width spec in
      List.iter
        (fun site ->
          let run = Option.get (plan.Program.cone_case ~site) in
          let outcomes =
            run (Array.init width (fun case -> Models.case_corrupt spec ~case:((site * width) + case)))
          in
          let got = String.init width (fun case -> byte_of_cone outcomes.(case)) in
          let expected =
            String.init width (fun case ->
                Ground_truth.case_byte_model spec interp ((site * width) + case))
          in
          Alcotest.(check string)
            (Printf.sprintf "site %d under %s" site (Models.spec_name spec))
            expected got)
        [ 0; 1; sites / 2; sites - 1 ])
    discrete_specs

let test_branch_feeding_sites_fall_back () =
  (* normalize's norm feeds a float branch: the sites whose cones reach
     it are declined, the rest are taken. *)
  let _, fast, _ = List.find (fun (name, _, _) -> name = "ir.normalize") (Lazy.force fixtures) in
  let plan = plan_of fast in
  let taken = List.length (accepted plan) in
  Alcotest.(check bool)
    (Printf.sprintf "normalize declines some sites and takes others (%d/%d)" taken
       plan.Program.cone_sites)
    true
    (taken > 0 && taken < plan.Program.cone_sites)

let test_closures_order_and_domain_independent () =
  (* A closure owns its cone and the working storage is per domain, so
     closures for many sites may run in any order and on any domain. *)
  let _, fast, _ = List.find (fun (name, _, _) -> name = "ir.cg") (Lazy.force fixtures) in
  let plan = plan_of fast in
  let flips = Array.init 64 (fun bit -> Ftb_util.Bits.flip ~bit) in
  let runs =
    Array.of_list
      (List.map (fun site -> Option.get (plan.Program.cone_case ~site)) (accepted plan))
  in
  let n = Array.length runs in
  let serial = Array.map (fun run -> run flips) runs in
  let reversed = Array.make n [||] in
  for i = n - 1 downto 0 do
    reversed.(i) <- runs.(i) flips
  done;
  let split = Array.make n [||] in
  let half parity () =
    for i = n - 1 downto 0 do
      if i mod 2 = parity then split.(i) <- runs.(i) flips
    done
  in
  let other = Domain.spawn (half 0) in
  half 1 ();
  Domain.join other;
  Alcotest.(check bool) (Printf.sprintf "%d closures run in reverse = serial" n) true
    (reversed = serial);
  Alcotest.(check bool) "closures split across two domains = serial" true (split = serial)

let prop_random_ir_cone_identity =
  QCheck.Test.make ~name:"cone bytes = interpreted bytes (random IR, discrete models)"
    ~count:100
    (QCheck.make
       ~print:(fun seed -> Ir.to_string (Test_passes.gen_ir seed))
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let ir = Test_passes.gen_ir seed in
      let fast = Golden.run (Pipeline.to_program ir) in
      let interp = Golden.run (Ir.to_program_interpreted ir) in
      List.for_all
        (fun spec ->
          let expected = reference_bytes spec interp in
          let gt = Executor.ground_truth_model ~domains:1 spec fast in
          Bytes.equal expected gt.Ground_truth.outcomes
          && Bytes.equal expected (direct_bytes spec fast expected))
        discrete_specs)

let suite =
  [
    Alcotest.test_case "discrete models: cone = interpreted bytes" `Quick
      test_discrete_models_byte_identity;
    Alcotest.test_case "stochastic model: fallback = interpreted bytes" `Quick
      test_stochastic_model_byte_identity;
    Alcotest.test_case "fuel forces identical fallback" `Quick
      test_fuel_forces_fallback_identically;
    Alcotest.test_case "cone flag is outcome-invariant" `Quick test_cone_flag_changes_nothing;
    Alcotest.test_case "pooled cone campaign = serial" `Quick
      test_pooled_cone_campaign_identity;
    Alcotest.test_case "cone plans cover the site space" `Quick
      test_cone_plans_exist_and_cover;
    Alcotest.test_case "large cones are exact, no size cap" `Quick test_large_cones_exact;
    Alcotest.test_case "huge cones run in lane chunks" `Quick test_huge_cones_run_in_chunks;
    Alcotest.test_case "branch-feeding sites fall back" `Quick
      test_branch_feeding_sites_fall_back;
    Alcotest.test_case "closures are order- and domain-independent" `Quick
      test_closures_order_and_domain_independent;
    Helpers.qcheck_to_alcotest prop_random_ir_cone_identity;
  ]
