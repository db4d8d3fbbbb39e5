(* In-process half of the ftb benchmark.

   perfbench/run.py drives the workloads and turns raw measurements into
   metrics; this executable does the parts that need the library itself:

     probe.exe lower --seed S
     probe.exe campaign --seed S --seconds T --trace 0|1 --tmp DIR
     probe.exe service-run --socket PATH --seed S --phase exhaustive|adaptive
     probe.exe service-check --seed S --tmp DIR --trace 0|1 --state DIR...

   Each prints one JSON object of raw measurements as its last stdout
   line. Times come from the monotonic clock (CLOCK_MONOTONIC, the same
   clock as Python's time.monotonic), so run.py can merge the spans
   recorded here with its own. Output checks run outside every timed
   window. Every pass lowers its programs afresh, so each pass also pays its
   own cone builds. *)

module Json = Ftb_service.Json
module Golden = Ftb_trace.Golden
module Engine = Ftb_campaign.Engine
module Gt = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Pool = Ftb_inject.Parallel.Pool
module Ir_kernels = Ftb_kernels.Ir_kernels
module Adaptive = Ftb_core.Adaptive
module Bstore = Ftb_plan.Boundary_store
module Client = Ftb_service.Client
module Job = Ftb_service.Job
module Wire = Ftb_service.Wire

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Spans are kept in memory and printed with the result; run.py attaches
   the root ones under its own span [parent]. *)
type span = { id : int; name : string; start : float; stop : float; parent : int option }

let spans : span list ref = ref []
let next_span = ref 0

let span ?parent name f =
  incr next_span;
  let id = !next_span in
  let start = now () in
  let r = f id in
  spans := { id; name; start; stop = now (); parent } :: !spans;
  r

let spans_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("start", Json.Float s.start);
             ("end", Json.Float s.stop);
             ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
           ])
       !spans)

(* Kernel input seeds come from the workload seed only. *)
let derive seed k = (abs ((seed * 1_000_003) + (k * 7919)) mod 1_000_000) + 1

let spec_of name =
  match Models.spec_of_string name with Ok s -> s | Error m -> failwith m

(* ------------------------------------------------------------------ *)
(* campaign workload                                                   *)

let campaign_irs seed =
  [
    ("ir.lu", fun () -> Ir_kernels.lu ~n:24 ~block:6 ~seed:(derive seed 1) ~tolerance:1e-4);
    ("ir.fft", fun () -> Ir_kernels.fft ~n1:16 ~n2:8 ~seed:(derive seed 2) ~tolerance:1.0);
    ("ir.gemm", fun () -> Ir_kernels.gemm ~n:24 ~block:4 ~seed:(derive seed 3) ~tolerance:1e-3);
    ( "ir.stencil",
      fun () -> Ir_kernels.stencil ~size:16 ~sweeps:8 ~seed:(derive seed 4) ~tolerance:1e-4 );
    ("ir.cg", fun () -> Ir_kernels.cg ~grid:6 ~iterations:8 ~tolerance:1e-4);
  ]

(* (label, kernel, fault model): ir.lu runs a second time under
   bit-flip-32, which keeps the model-generic executor path on the clock. *)
let campaigns =
  [
    ("ir.lu", "ir.lu", "bit-flip-64");
    ("ir.fft", "ir.fft", "bit-flip-64");
    ("ir.gemm", "ir.gemm", "bit-flip-64");
    ("ir.stencil", "ir.stencil", "bit-flip-64");
    ("ir.cg", "ir.cg", "bit-flip-64");
    ("ir.lu.bf32", "ir.lu", "bit-flip-32");
  ]

let domains = 2

let lower_all ?parent seed =
  List.map
    (fun (name, build) ->
      let ir = build () in
      let program, s =
        timed (fun () ->
            span ?parent "ir.lower" (fun _ -> Ftb_ir.Pipeline.to_program ir))
      in
      (name, (ir, program, s)))
    (campaign_irs seed)

(* Per-wave instrumentation of the traced run. *)
type wave_log = {
  mutable busy : float;  (** Σ time inside run_local *)
  mutable capacity : float;  (** Σ participants × wave wall time *)
  mutable returned : float;  (** when the last run_wave returned *)
  mutable checkpoint_ms : float list;
  mutable progress_at : float list;
}

(* A pass-through runner that mirrors the engine's default local runner
   (inline for a one-shard wave, else one shard per pool claim) and times
   each run_local call. *)
let traced_runner log =
  let pool = Pool.global ~domains () in
  {
    Engine.wave_size = (fun () -> domains);
    run_wave =
      (fun tasks ~commit:_ ~run_local ->
        let n = Array.length tasks in
        let busy = Array.make n 0. and results = Array.make n None in
        let run i =
          let t = tasks.(i) in
          let t0 = now () in
          let r =
            try
              run_local ~lo:t.Engine.lo ~hi:t.Engine.hi;
              Ok ()
            with e -> Error (Printexc.to_string e)
          in
          busy.(i) <- now () -. t0;
          results.(i) <- Some (t.Engine.shard, r)
        in
        let t0 = now () in
        if n = 1 then run 0
        else
          Pool.run pool ~participants:domains ~chunk:1 ~total:n (fun lo hi ->
              for i = lo to hi - 1 do
                run i
              done);
        let t1 = now () in
        log.busy <- log.busy +. Array.fold_left ( +. ) 0. busy;
        log.capacity <- log.capacity +. (float_of_int domains *. (t1 -. t0));
        log.returned <- t1;
        Array.to_list results |> List.filter_map Fun.id);
  }

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let run_campaign ~traced ~pass_span ~tmp programs (label, kernel, model) =
  let _, program, _ = List.assoc kernel programs in
  let model = spec_of model in
  span ~parent:pass_span ("campaign." ^ label) (fun cspan ->
      let golden, golden_s =
        timed (fun () -> span ~parent:cspan "trace.golden" (fun _ -> Golden.run program))
      in
      let trace_fields = ref [] in
      let log =
        { busy = 0.; capacity = 0.; returned = 0.; checkpoint_ms = []; progress_at = [] }
      in
      if traced then begin
        (* Force the (memoized) cone analysis before the engine runs, so
           its build time is measured apart from replay. *)
        let plan, cone_s =
          timed (fun () ->
              span ~parent:cspan "ir.cone_build" (fun _ ->
                  match program.Ftb_trace.Program.cone with
                  | Some force -> force ()
                  | None -> None))
        in
        let sites = Golden.sites golden in
        let exact =
          span ~parent:cspan "ir.cone_site_share" (fun _ ->
              match plan with
              | None -> 0
              | Some p ->
                  let c = ref 0 in
                  for site = 0 to sites - 1 do
                    if Option.is_some (p.Ftb_trace.Program.cone_case ~site) then incr c
                  done;
                  !c)
        in
        trace_fields :=
          [ ("cone_build_s", Json.Float cone_s); ("sites", Json.Int sites); ("cone_sites", Json.Int exact) ]
      end;
      let checkpoint = Filename.concat tmp ("campaign-" ^ label ^ ".ckpt") in
      if Sys.file_exists checkpoint then Sys.remove checkpoint;
      let config =
        if traced then
          {
            Engine.default_config with
            domains;
            model;
            resume = false;
            runner = Some (traced_runner log);
            progress = Some (fun _ -> log.progress_at <- now () :: log.progress_at);
            on_checkpoint =
              Some
                (fun ~shards_done:_ ~shards_total:_ ->
                  log.checkpoint_ms <- ((now () -. log.returned) *. 1e3) :: log.checkpoint_ms);
          }
        else { Engine.default_config with domains; model; resume = false }
      in
      let start = now () in
      let report, engine_s =
        timed (fun () ->
            span ~parent:cspan "campaign.engine" (fun _ ->
                Engine.run ~config ~checkpoint golden))
      in
      let ckpt_bytes = file_size checkpoint in
      if Sys.file_exists checkpoint then Sys.remove checkpoint;
      let gt = report.Engine.ground_truth in
      if traced then begin
        let at = List.rev log.progress_at in
        let rec gaps prev = function [] -> [] | t :: rest -> (t -. prev) *. 1e3 :: gaps t rest in
        trace_fields :=
          !trace_fields
          @ [
              ("replay_s", Json.Float log.busy);
              ("pool_capacity_s", Json.Float log.capacity);
              ("waves", Json.Int (List.length at));
              ("wave_ms", floats (gaps start at));
              ("checkpoint_ms", floats (List.rev log.checkpoint_ms));
              ("checkpoints", Json.Int report.Engine.checkpoints_written);
              ("checkpoint_bytes", Json.Int ckpt_bytes);
            ]
      end;
      ( gt,
        Json.Obj
          ([
             ("name", Json.String label);
             ("cases", Json.Int (Gt.cases gt));
             ("golden_s", Json.Float golden_s);
             ("engine_s", Json.Float engine_s);
             ("digest", Json.String (Digest.to_hex (Digest.bytes gt.Gt.outcomes)));
           ]
          @ !trace_fields) ))

(* The differential oracle: a seeded sample of every campaign's cases is
   re-run one by one on the interpreted (unoptimized, no-cone) program. *)
let check_campaign ~seed ~samples programs (label, kernel, model) gt =
  let ir, _, _ = List.assoc kernel programs in
  let model = spec_of model in
  let golden = Golden.run (Ftb_ir.Ir.to_program_interpreted ir) in
  let cases = Gt.cases gt in
  if Models.total_cases model ~sites:(Golden.sites golden) <> cases then
    [ Printf.sprintf "%s: interpreted program has %d sites" label (Golden.sites golden) ]
  else begin
    let rng = Ftb_util.Rng.create ~seed:(derive seed (Hashtbl.hash label)) in
    let bad = ref [] in
    for _ = 1 to samples do
      let case = Ftb_util.Rng.int rng cases in
      let want = Gt.case_byte_model model golden case in
      let got = Bytes.get gt.Gt.outcomes case in
      if want <> got then
        bad :=
          Printf.sprintf "%s: case %d outcome byte %d, oracle %d" label case
            (Char.code got) (Char.code want)
          :: !bad
    done;
    List.rev !bad
  end

(* Set-up of the campaign workload, timed in a fresh process: run.py runs
   this several times and reports the median, because how long the first
   lowering in a process takes varies from process to process. *)
let lower_cmd ~seed =
  Json.Obj [ ("setup_s", Json.Float (snd (timed (fun () -> ignore (lower_all seed))))) ]

let oracle_samples = 128

let campaign_cmd ~seed ~seconds ~trace ~tmp =
  let t_start = now () in
  let passes = ref [] and first = ref None and digests = ref [] in
  let pass = ref 0 in
  let have_both () = (not trace) || !pass >= 2 in
  while !pass = 0 || now () -. t_start < seconds || not (have_both ()) do
    let traced = trace && !pass mod 2 = 1 in
    let run_name = Printf.sprintf "campaign/pass%d" !pass in
    span run_name (fun pass_span ->
        let programs = span ~parent:pass_span "setup" (fun id -> lower_all ~parent:id seed) in
        let results =
          List.map (run_campaign ~traced ~pass_span ~tmp programs) campaigns
        in
        if !first = None then first := Some (programs, List.map fst results);
        digests :=
          List.map (fun (gt, _) -> Digest.to_hex (Digest.bytes gt.Gt.outcomes)) results
          :: !digests;
        passes :=
          Json.Obj
            [
              ("traced", Json.Bool traced);
              ( "lower_s",
                Json.Obj (List.map (fun (n, (_, _, s)) -> (n, Json.Float s)) programs) );
              ("campaigns", Json.List (List.map snd results));
            ]
          :: !passes);
    incr pass
  done;
  let errors =
    match !first with
    | None -> [ "no pass ran" ]
    | Some (programs, gts) ->
        let oracle =
          List.concat (List.map2 (check_campaign ~seed ~samples:oracle_samples programs) campaigns gts)
        in
        let repeat =
          match !digests with
          | [] -> []
          | d :: rest ->
              if List.for_all (( = ) d) rest then []
              else [ "outcome bytes differ between passes" ]
        in
        oracle @ repeat
  in
  Json.Obj
    [
      ("passes", Json.List (List.rev !passes));
      ("checked", Json.Int (oracle_samples * List.length campaigns));
      ("errors", Json.List (List.map (fun e -> Json.String e) errors));
      ("spans", spans_json ());
    ]

(* ------------------------------------------------------------------ *)
(* service workload: the client side                                   *)

let adaptive_benches = [ "ir.lu"; "ir.stencil3"; "ir.cg" ]
let exhaustive_benches = [ "ir.lu"; "ir.stencil3" ]
let warm_rounds = 7

(* Each exhaustive bench runs once cold and twice more: with a worker
   attached its profiles are fleet-unaudited, so the repeats rerun unless
   the cache serves them. Three per bench keeps the throughput steady. *)
let exhaustive_repeats = 3

(* Open-loop boundary_query rate, per second. It is the lowest rate the
   tail rule needs, not a model of real traffic: p99 is only reported when
   at least ten samples lie beyond it, so a run needs about 1100 queries.
   Queries run from the first stored boundary until the last job ends,
   which over the three passes of a 28 s run added up to 13.6 to 20.8 s
   (seeds 1 to 5, 2-vCPU host). 1100 / 13.6 s is 81/s; 100/s leaves room
   for a run whose passes are fewer or shorter. Every query holds the
   daemon's runtime lock for a moment, so a higher rate would take more
   from the cold adaptive jobs the workload times. *)
let query_rate = 100.

let adaptive_seed seed bench = derive seed (10 + Hashtbl.hash bench mod 1000)

let adaptive_spec seed bench =
  {
    (Job.default_spec ~bench) with
    Job.mode = Job.Adaptive { config = Adaptive.default_config; seed = adaptive_seed seed bench };
  }

type job_record = {
  cls : string;
  bench : string;
  submit_at : float;
  submit_ms : float;
  done_at : float;
  rounds : (float * int * int) list;  (** client time, round, samples_total *)
  info : (Job.info, string) result;
}

let is_transport = function
  | Wire.Closed | Wire.Protocol_error _ | Unix.Unix_error _ -> true
  | _ -> false

let service_run_cmd ~socket ~seed ~phase =
  let first_boundary = Atomic.make false and finished = Atomic.make false in
  let stored = ref [] and stored_lock = Mutex.create () in
  let typed = ref 0 and transport = ref 0 in
  let records = ref [] in
  let client = ref None in
  let get_client () =
    match !client with
    | Some c -> c
    | None ->
        let c = Client.connect ~socket in
        client := Some c;
        c
  in
  let drop_client () =
    Option.iter (fun c -> try Client.close c with _ -> ()) !client;
    client := None
  in
  let run_job cls spec =
    let bench = spec.Job.bench in
    let rounds = ref [] in
    let submit_at = now () in
    let outcome =
      match
        let c = get_client () in
        match Client.submit c spec with
        | Error e ->
            incr typed;
            Error (e.Client.code ^ ": " ^ e.Client.message)
        | Ok id -> (
            let submit_ms = (now () -. submit_at) *. 1e3 in
            let on_event = function
              | Client.Round { round; samples_total; _ } ->
                  rounds := (now (), round, samples_total) :: !rounds
              | _ -> ()
            in
            match Client.watch ~on_event c id with
            | Error e ->
                incr typed;
                Error (e.Client.code ^ ": " ^ e.Client.message)
            | Ok info -> Ok (submit_ms, info))
      with
      | r -> r
      | exception e when is_transport e ->
          incr transport;
          drop_client ();
          Error ("transport: " ^ Printexc.to_string e)
    in
    let done_at = now () in
    let submit_ms, info =
      match outcome with Ok (ms, info) -> (ms, Ok info) | Error m -> (0., Error m)
    in
    records :=
      { cls; bench; submit_at; submit_ms; done_at; rounds = List.rev !rounds; info }
      :: !records;
    info
  in
  (* Open-loop boundary queries on their own connection: query k is due
     at start + k / rate whether or not earlier ones were slow, and its
     latency is counted from when it was due. *)
  let queries = ref [] in
  let query_thread () =
    while not (Atomic.get first_boundary || Atomic.get finished) do
      Thread.delay 0.001
    done;
    if not (Atomic.get finished) then begin
      let rng = Ftb_util.Rng.create ~seed:(derive seed 99) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let start = now () in
      let k = ref 0 in
      while not (Atomic.get finished) do
        let due = start +. (float_of_int !k /. query_rate) in
        incr k;
        let wait = due -. now () in
        if wait > 0. then Thread.delay wait;
        let targets = Mutex.protect stored_lock (fun () -> !stored) in
        let bench, sites = List.nth targets (Ftb_util.Rng.int rng (List.length targets)) in
        let site = Ftb_util.Rng.int rng sites and bit = Ftb_util.Rng.int rng 64 in
        let sent = now () in
        let ok =
          match
            Wire.write fd
              (Json.Obj
                 [
                   ("cmd", Json.String "boundary_query");
                   ("bench", Json.String bench);
                   ("site", Json.Int site);
                   ("bit", Json.Int bit);
                 ]);
            Wire.read fd
          with
          | reply -> Json.member "ok" reply = Some (Json.Bool true)
          | exception e when is_transport e -> false
        in
        queries := [ due; sent; now (); (if ok then 1. else 0.) ] :: !queries
      done;
      Unix.close fd
    end
  in
  let t_start = now () in
  let querier =
    match phase with
    | `Exhaustive ->
        (* Fixed work first: the same jobs at every seed. *)
        List.iter
          (fun bench ->
            for _ = 1 to exhaustive_repeats do
              ignore (run_job "exhaustive" (Job.default_spec ~bench))
            done)
          exhaustive_benches;
        None
    | `Adaptive -> (
        let querier = Thread.create query_thread () in
        try
          List.iter
            (fun bench ->
              match run_job "adaptive_cold" (adaptive_spec seed bench) with
              | Ok info when info.Job.status = Job.Completed ->
                  let sites = info.Job.counts.Job.cases_total / 64 in
                  Mutex.protect stored_lock (fun () -> stored := (bench, sites) :: !stored);
                  Atomic.set first_boundary true
              | _ -> ())
            adaptive_benches;
          for _ = 1 to warm_rounds do
            List.iter
              (fun bench -> ignore (run_job "adaptive_warm" (adaptive_spec seed bench)))
              adaptive_benches
          done;
          Some querier
        with e ->
          Atomic.set finished true;
          Thread.join querier;
          raise e)
  in
  let t_end = now () in
  Atomic.set finished true;
  Option.iter Thread.join querier;
  drop_client ();
  let worker =
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Wire.write fd Ftb_dist.Worker_proto.workers_request;
          Ftb_dist.Worker_proto.parse_workers (Wire.read fd))
    with
    | rows, _ ->
        let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
        Json.Obj
          [
            ("workers", Json.Int (List.length rows));
            ("committed", Json.Int (sum (fun r -> r.Ftb_dist.Worker_proto.row_committed)));
            ("failed", Json.Int (sum (fun r -> r.Ftb_dist.Worker_proto.row_failed)));
            ("disputed", Json.Int (sum (fun r -> r.Ftb_dist.Worker_proto.row_disputed)));
          ]
    | exception e when is_transport e ->
        incr transport;
        Json.Null
  in
  let job_json r =
    let base =
      [
        ("class", Json.String r.cls);
        ("bench", Json.String r.bench);
        ("submit_at", Json.Float r.submit_at);
        ("submit_ms", Json.Float r.submit_ms);
        ("done_at", Json.Float r.done_at);
        ( "rounds",
          Json.List
            (List.map
               (fun (t, round, samples) ->
                 Json.List [ Json.Float t; Json.Int round; Json.Int samples ])
               r.rounds) );
      ]
    in
    match r.info with
    | Error m -> Json.Obj (base @ [ ("error", Json.String m) ])
    | Ok info ->
        let opt = function Some t -> Json.Float t | None -> Json.Null in
        Json.Obj
          (base
          @ [
              ("id", Json.Int info.Job.id);
              ("status", Json.String (Job.status_name info.Job.status));
              ("cache", Json.String (Job.cache_name info.Job.cache));
              ("cases", Json.Int info.Job.counts.Job.cases_done);
              ("cases_total", Json.Int info.Job.counts.Job.cases_total);
              ("submitted", Json.Float info.Job.submitted);
              ("started", opt info.Job.started);
              ("finished", opt info.Job.finished);
            ])
  in
  Json.Obj
    [
      ("start", Json.Float t_start);
      ("end", Json.Float t_end);
      ("jobs", Json.List (List.rev_map job_json !records));
      ("queries", Json.List (List.rev_map floats !queries));
      ("typed_errors", Json.Int !typed);
      ("transport_errors", Json.Int !transport);
      ("worker", worker);
    ]

(* ------------------------------------------------------------------ *)
(* service workload: output checks and store-side layer metrics        *)

let exact_floats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let service_check_cmd ~seed ~tmp ~trace ~states =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let fuel = (Job.default_spec ~bench:"").Job.fuel in
  let spec = Models.default_spec and config = Adaptive.default_config in
  (* References: the serial adaptive engine per cold job, and an
     in-process exhaustive campaign per exhaustive bench. *)
  let adaptive_refs =
    List.map
      (fun bench ->
        let golden = Golden.run (Ftb_kernels.Suite.find bench) in
        let seed = adaptive_seed seed bench in
        let result, _ =
          Ftb_plan.Adaptive_engine.run ~config ~spec ?fuel ~name:bench ~seed golden
        in
        let entry =
          Bstore.entry_of_result ~bench ~spec ~fuel ~config ~seed ~created:0. golden result
        in
        let key =
          Bstore.key_of ~bench
            ~fingerprint:(Ftb_util.Fingerprint.of_floats golden.Golden.values)
            ~spec ~fuel ~config ~seed
        in
        (bench, (key, entry)))
      adaptive_benches
  in
  let exhaustive_refs =
    List.map
      (fun bench ->
        let golden = Golden.run (Ftb_kernels.Suite.find bench) in
        let report =
          Engine.run ~config:{ Engine.default_config with fuel; domains = 1 } golden
        in
        let m = ref 0 and s = ref 0 and c = ref 0 in
        Gt.counts report.Engine.ground_truth ~masked:m ~sdc:s ~crash:c;
        (bench, (!m, !s, !c)))
      exhaustive_benches
  in
  let checked = ref 0 in
  List.iter
    (fun state ->
      let bs = Bstore.open_ ~root:(Ftb_service.Server.boundaries_dir ~state_dir:state) in
      List.iter
        (fun (info : Job.info) ->
          incr checked;
          let bench = info.Job.spec.Job.bench in
          let k = info.Job.counts in
          if info.Job.status <> Job.Completed then
            fail "%s job %d: %s" bench info.Job.id (Job.status_name info.Job.status)
          else
            match info.Job.spec.Job.mode with
            | Job.Adaptive _ -> (
                let key, (want : Bstore.entry) = List.assoc bench adaptive_refs in
                if
                  (k.Job.cases_done, k.Job.masked, k.Job.sdc, k.Job.crash)
                  <> (want.Bstore.samples, want.Bstore.masked, want.Bstore.sdc, want.Bstore.crash)
                then fail "%s adaptive job %d: counts differ from the serial engine" bench info.Job.id;
                match Bstore.find bs ~key with
                | None -> fail "%s: no stored boundary under the serial key" bench
                | Some got ->
                    if
                      not
                        (exact_floats got.Bstore.thresholds want.Bstore.thresholds
                        && got.Bstore.support = want.Bstore.support
                        && got.Bstore.rounds = want.Bstore.rounds)
                    then fail "%s: stored boundary differs from the serial engine" bench)
            | Job.Exhaustive ->
                if (k.Job.masked, k.Job.sdc, k.Job.crash) <> List.assoc bench exhaustive_refs then
                  fail "%s exhaustive job %d: counts differ from the in-process campaign" bench
                    info.Job.id
            | Job.Sample _ -> fail "unexpected sample job %d" info.Job.id)
        (Job.load_all ~state_dir:state))
    states;
  let layer =
    match (trace, List.rev states) with
    | true, state :: _ ->
        (* Round checkpoints of the cold adaptive jobs: size, and a save
           of the loaded state to scratch. *)
        let ckpts =
          Job.load_all ~state_dir:state
          |> List.filter_map (fun (info : Job.info) ->
                 match info.Job.spec.Job.mode with
                 | Job.Adaptive _ ->
                     let path = Job.checkpoint_path ~state_dir:state info.Job.id in
                     if Sys.file_exists path then Some path else None
                 | _ -> None)
        in
        let bytes = List.fold_left (fun a p -> a + file_size p) 0 ckpts in
        let save_ms =
          List.fold_left
            (fun acc path ->
              let ck = Ftb_plan.Round_checkpoint.load ~path in
              let out = Filename.concat tmp "round-save.ckpt" in
              let _, s = timed (fun () -> Ftb_plan.Round_checkpoint.save ~path:out ck) in
              Sys.remove out;
              acc +. (s *. 1e3))
            0. ckpts
        in
        (* Read-only store lookups in process: the non-wire share of a
           boundary_query. *)
        let bs = Bstore.open_ ~root:(Ftb_service.Server.boundaries_dir ~state_dir:state) in
        let rng = Ftb_util.Rng.create ~seed:(derive seed 98) in
        let per_call =
          List.init 600 (fun i ->
              let bench = List.nth adaptive_benches (i mod List.length adaptive_benches) in
              let _, s =
                timed (fun () ->
                    match Bstore.find_latest bs ~bench () with
                    | None -> ()
                    | Some e ->
                        ignore
                          (Bstore.query e
                             ~site:(Ftb_util.Rng.int rng e.Bstore.sites)
                             ~bit:(Ftb_util.Rng.int rng 64)))
              in
              s *. 1e6)
        in
        Json.Obj
          [
            ("round_checkpoints", Json.Int (List.length ckpts));
            ("round_checkpoint_bytes", Json.Int bytes);
            ("round_checkpoint_save_ms", Json.Float save_ms);
            ("store_query_us", floats per_call);
          ]
    | _ -> Json.Null
  in
  Json.Obj
    [
      ("checked", Json.Int !checked);
      ("errors", Json.List (List.rev_map (fun e -> Json.String e) !errors));
      ("layer", layer);
    ]

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let rec all key = function
    | k :: v :: rest when k = key -> v :: all key rest
    | _ :: rest -> all key rest
    | [] -> []
  in
  let req key =
    match opt key args with
    | Some v -> v
    | None ->
        Printf.eprintf "probe: missing %s\n" key;
        exit 2
  in
  let seed () = int_of_string (req "--seed") in
  let trace () = opt "--trace" args = Some "1" in
  let result =
    match args with
    | "lower" :: _ -> lower_cmd ~seed:(seed ())
    | "campaign" :: _ ->
        campaign_cmd ~seed:(seed ()) ~seconds:(float_of_string (req "--seconds"))
          ~trace:(trace ()) ~tmp:(req "--tmp")
    | "service-run" :: _ ->
        let phase =
          match req "--phase" with
          | "exhaustive" -> `Exhaustive
          | "adaptive" -> `Adaptive
          | p ->
              Printf.eprintf "probe: unknown phase %s\n" p;
              exit 2
        in
        service_run_cmd ~socket:(req "--socket") ~seed:(seed ()) ~phase
    | "service-check" :: _ ->
        service_check_cmd ~seed:(seed ()) ~tmp:(req "--tmp") ~trace:(trace ())
          ~states:(all "--state" args)
    | _ ->
        prerr_endline "usage: probe.exe (lower|campaign|service-run|service-check) OPTIONS";
        exit 2
  in
  print_endline (Json.to_string result)
