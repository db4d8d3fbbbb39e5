(* IR pipeline smoke test (dune alias @ir-smoke).

   End-to-end gate for the optimizing pipeline + dependent-cone replay:
   every IR kernel port at a tiny configuration is lowered twice — through
   [Pipeline.to_program] (optimized, compiled, cone plan attached) and
   through [Ir.to_program_interpreted] (the tree-walking reference) — and
   an exhaustive campaign per fault model must produce bit-identical
   outcome bytes. Also asserts the cone fast path is actually taken
   (a plan exists and accepts sites, and its closures, called directly
   outside the executor's containment, raise nowhere and reproduce the
   reference bytes) so a silent fallback regression cannot pass the
   gate, that the suite's cg and lu are cone-exact at every site (no
   cone-size cap), and that the optimizer shrank at least one kernel.
   Small configs: the whole smoke is a few seconds. *)

module Ir = Ftb_ir.Ir
module Passes = Ftb_ir.Passes
module Pipeline = Ftb_ir.Pipeline
module Golden = Ftb_trace.Golden
module Program = Ftb_trace.Program
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Ir_kernels = Ftb_kernels.Ir_kernels

let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok    %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" what
  end

let kernels =
  [
    ("ir.cg", fun () -> Ir_kernels.cg ~grid:3 ~iterations:3 ~tolerance:1e-4);
    ("ir.lu", fun () -> Ir_kernels.lu ~n:6 ~block:3 ~seed:7 ~tolerance:1e-4);
    ("ir.fft", fun () -> Ir_kernels.fft ~n1:4 ~n2:4 ~seed:11 ~tolerance:1.0);
    ("ir.jacobi", fun () -> Ir_kernels.jacobi ~grid:3 ~sweeps:2 ~tolerance:1e-4);
    ("ir.gemm", fun () -> Ir_kernels.gemm ~n:4 ~block:2 ~seed:21 ~tolerance:1e-3);
    ("ir.matmul", fun () -> Ir_kernels.matmul ~n:4 ~seed:9 ~tolerance:1e-3);
    ("ir.stencil", fun () -> Ir_kernels.stencil ~size:4 ~sweeps:2 ~seed:3 ~tolerance:1e-4);
  ]

let specs =
  List.map (fun model -> { Models.model; seed = 0 }) Models.all_discrete
  @ [ { Models.model = Models.Random_value { lo = -4.; hi = 4. }; seed = 9 } ]

let discrete_specs =
  List.filter (fun (s : Models.spec) -> not (Models.is_stochastic s.model)) specs

let accepted_sites plan =
  let accepted = ref 0 in
  for site = 0 to plan.Program.cone_sites - 1 do
    if plan.Program.cone_case ~site <> None then incr accepted
  done;
  !accepted

let byte_of_cone = function
  | Program.Cone_masked -> '\000'
  | Program.Cone_sdc -> '\001'
  | Program.Cone_crash reason -> Ground_truth.crash_byte reason

(* The plan's own bytes under [spec]: every accepted site's closure
   called directly, with no containment, so a closure that raises is
   counted here rather than sent to the snapshot path by the executor.
   Declined sites keep [fallback]'s bytes. Returns the bytes and the
   number of sites whose closure raised. *)
let cone_bytes plan spec fallback =
  let width = Models.spec_width spec in
  let buf = Bytes.of_string fallback in
  let raised = ref 0 in
  for site = 0 to plan.Program.cone_sites - 1 do
    match plan.Program.cone_case ~site with
    | None -> ()
    | Some run -> (
        let corrupts =
          Array.init width (fun case -> Models.case_corrupt spec ~case:((site * width) + case))
        in
        match run corrupts with
        | outcomes ->
            Array.iteri (fun i o -> Bytes.set buf ((site * width) + i) (byte_of_cone o)) outcomes
        | exception _ -> incr raised)
  done;
  (Bytes.to_string buf, !raised)

let reference_bytes spec golden =
  let total = Models.total_cases spec ~sites:(Golden.sites golden) in
  String.init total (fun case -> Ground_truth.case_byte_model spec golden case)

let () =
  let shrunk = ref false in
  List.iter
    (fun (name, build) ->
      let ir = build () in
      (match Ir.validate ir with
      | Ok () -> check (name ^ ": validates") true
      | Error msgs ->
          check (Printf.sprintf "%s: validates (%s)" name (String.concat "; " msgs)) false);
      let optimized, stats = Pipeline.optimize_with_report ir in
      let before = Passes.op_count ir and after = Passes.op_count optimized in
      if after < before then shrunk := true;
      check
        (Printf.sprintf "%s: pipeline ran %d passes (%d -> %d ops)" name
           (List.length stats) before after)
        (after <= before);
      let fast = Golden.run (Pipeline.to_program ir) in
      let interp = Golden.run (Ir.to_program_interpreted ir) in
      check
        (Printf.sprintf "%s: same site space (%d)" name (Golden.sites fast))
        (Golden.sites fast = Golden.sites interp);
      (match fast.Golden.program.Program.cone with
      | None -> check (name ^ ": cone capability attached") false
      | Some force -> (
          match force () with
          | None -> check (name ^ ": cone plan builds") false
          | Some plan ->
              let accepted = accepted_sites plan in
              check
                (Printf.sprintf "%s: cone accepts %d/%d sites" name accepted
                   plan.Program.cone_sites)
                (accepted > 0);
              List.iter
                (fun spec ->
                  let expected = reference_bytes spec interp in
                  let bytes, raised = cone_bytes plan spec expected in
                  check
                    (Printf.sprintf "%s: %s closures called directly = interpreted reference \
                                     (%d raised)"
                       name (Models.spec_name spec) raised)
                    (raised = 0 && String.equal expected bytes))
                discrete_specs));
      List.iter
        (fun spec ->
          let expected = reference_bytes spec interp in
          let gt = Executor.ground_truth_model ~domains:2 spec fast in
          check
            (Printf.sprintf "%s: %s bytes = interpreted reference" name
               (Models.spec_name spec))
            (String.equal expected (Bytes.to_string gt.Ground_truth.outcomes)))
        specs)
    kernels;
  check "pipeline shrinks at least one kernel" !shrunk;
  (* No cone-size cap: at their suite configurations, cg and lu (whose
     big cones a cap once sent to the snapshot tier) are cone-exact at
     every site. *)
  List.iter
    (fun name ->
      match (Ftb_kernels.Suite.find name).Program.cone with
      | None -> check (name ^ " (suite): cone capability attached") false
      | Some force -> (
          match force () with
          | None -> check (name ^ " (suite): cone plan builds") false
          | Some plan ->
              let accepted = accepted_sites plan in
              check
                (Printf.sprintf "%s (suite): cone accepts every site (%d/%d)" name accepted
                   plan.Program.cone_sites)
                (accepted = plan.Program.cone_sites);
              List.iter
                (fun spec ->
                  let total = Models.total_cases spec ~sites:plan.Program.cone_sites in
                  let _, raised = cone_bytes plan spec (String.make total '\000') in
                  check
                    (Printf.sprintf "%s (suite): %s closures raise at no site (%d raised)" name
                       (Models.spec_name spec) raised)
                    (raised = 0))
                discrete_specs))
    [ "ir.cg"; "ir.lu" ];
  if !failures > 0 then begin
    Printf.printf "ir smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "ir smoke: all checks passed"
