(* Adaptive-sampling benchmark (dune alias @adaptive-bench, not part of
   runtest).

   Measures §3.4 adaptive-campaign wall clock through three execution
   paths — the serial in-process engine, a forked daemon running rounds
   on its local oracle, and the same daemon with two worker processes
   leasing each round's draw — plus the two numbers that make the
   boundary store worth serving: the wall time of a warm-started exact
   resubmission (served from the store, zero fresh samples) and the
   latency of a single (site, bit) boundary query.

   Every arm's converged boundary is asserted bit-identical to the serial
   engine before any number is reported (each rep uses its own seed, so
   the content-addressed store never short-circuits a timed cold run).
   Results go to a JSON file together with the host core count: on a
   single-core host the fleet row measures protocol + lease overhead, not
   parallel speedup, and the JSON says so rather than dressing it up.

   All forks happen before the parent touches any domain pool; the parent
   only ever runs the serial engine and the socket client.

   Usage: bench_adaptive.exe [--quick] [--json PATH] [--reps N] *)

module Golden = Ftb_trace.Golden
module Adaptive = Ftb_core.Adaptive
module Boundary = Ftb_core.Boundary
module AE = Ftb_plan.Adaptive_engine
module BS = Ftb_plan.Boundary_store
module Models = Ftb_inject.Models
module Job = Ftb_service.Job
module Client = Ftb_service.Client
module Server = Ftb_service.Server
module Fleet = Ftb_dist.Fleet
module Worker = Ftb_dist.Worker

type options = { quick : bool; json : string; reps : int }

let parse_options () =
  let quick = ref false in
  let json = ref "BENCH_adaptive.json" in
  let reps = ref 0 in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--json" :: path :: rest ->
        json := path;
        go rest
    | "--reps" :: n :: rest ->
        reps := int_of_string n;
        go rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\nusage: bench_adaptive.exe [--quick] [--json PATH] [--reps N]\n"
          arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  { quick; json = !json; reps = (if !reps > 0 then !reps else if quick then 1 else 3) }

let programs ~quick =
  let open Ftb_ir in
  if quick then
    [
      ("ir.dot", Ir.to_program (Programs.dot ~n:40 ~seed:11 ~tolerance:1e-9));
      ( "ir.stencil3",
        Ir.to_program (Programs.stencil3 ~n:24 ~sweeps:3 ~seed:13 ~tolerance:1e-9) );
    ]
  else
    [
      ("ir.dot", Ir.to_program (Programs.dot ~n:160 ~seed:11 ~tolerance:1e-9));
      ( "ir.stencil3",
        Ir.to_program (Programs.stencil3 ~n:48 ~sweeps:8 ~seed:13 ~tolerance:1e-9) );
    ]

let aconfig =
  {
    Adaptive.default_config with
    Adaptive.round_fraction = 0.01;
    max_rounds = 15;
  }

let base_seed = 4100
let seeds ~reps = List.init reps (fun i -> base_seed + i)

(* ------------------------------------------------------------------ *)
(* Daemon + worker process plumbing (mirrors bench_fleet.ml).          *)

let fresh_dir tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_bench_adaptive_%s_%d" tag (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists path then rm path;
  Unix.mkdir path 0o755;
  path

let spawn_daemon ~resolve ~fleet ~state_dir sock =
  match Unix.fork () with
  | 0 ->
      let base = { (Server.default_config ~state_dir) with Server.resolve } in
      let config =
        match fleet with
        | None -> base
        | Some fleet ->
            {
              base with
              Server.extension = Some (Fleet.extension fleet);
              wave_runner = Some (Fleet.wave_runner fleet);
              round_runner = Some (Fleet.round_runner fleet);
            }
      in
      (match Server.run ~socket:sock (Server.create config) with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let connect_fd_with_retry sock =
  let rec go attempts =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempts > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.05);
        go (attempts - 1)
  in
  go 200

let spawn_worker ~resolve sock ready_w =
  match Unix.fork () with
  | 0 ->
      let signalled = ref false in
      let log _msg =
        if not !signalled then begin
          signalled := true;
          ignore (Unix.write ready_w (Bytes.make 1 'r') 0 1)
        end
      in
      let cfg =
        Worker.config ~domains:1 ~resolve ~log (fun () -> connect_fd_with_retry sock)
      in
      (match Worker.run cfg with
      | (_ : Worker.stats) -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let connect_client_with_retry sock =
  let rec go attempts =
    match Client.connect ~socket:sock with
    | client -> client
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempts > 0 ->
        ignore (Unix.select [] [] [] 0.05);
        go (attempts - 1)
  in
  go 200

let get_ok what = function
  | Ok v -> v
  | Error (e : Client.error) ->
      Printf.eprintf "FATAL: %s: daemon error %s: %s\n" what e.Client.code
        e.Client.message;
      exit 1

let job_spec ~bench ~seed =
  { (Job.default_spec ~bench) with Job.mode = Job.Adaptive { config = aconfig; seed } }

(* Run every (bench, seed) campaign through one daemon with [workers]
   attached; per bench the reported time is the best cold rep. Also
   times a warm resubmission of the last seed (a pure store serve).
   Returns (per-bench seconds, warm-serve seconds, state_dir). *)
let bench_daemon_config ~resolve ~tag ~workers ~benches ~seeds =
  let state_dir = fresh_dir tag in
  let sock = Filename.concat state_dir "daemon.sock" in
  let ready_r, ready_w = Unix.pipe () in
  let fleet = if workers = 0 then None else Some (Fleet.create ()) in
  let daemon = spawn_daemon ~resolve ~fleet ~state_dir sock in
  let worker_pids = List.init workers (fun _ -> spawn_worker ~resolve sock ready_w) in
  List.iter
    (fun _ ->
      match Unix.select [ ready_r ] [] [] 30.0 with
      | [ _ ], _, _ -> ignore (Unix.read ready_r (Bytes.create 1) 0 1)
      | _ ->
          Printf.eprintf "FATAL: %s: worker failed to attach\n" tag;
          exit 1)
    worker_pids;
  let client = connect_client_with_retry sock in
  let run_one ~bench ~seed =
    let t0 = Unix.gettimeofday () in
    let id = get_ok (tag ^ ": submit") (Client.submit client (job_spec ~bench ~seed)) in
    let final = get_ok (tag ^ ": watch") (Client.watch client id) in
    let dt = Unix.gettimeofday () -. t0 in
    if final.Job.status <> Job.Completed then begin
      Printf.eprintf "FATAL: %s: job for %s did not complete\n" tag bench;
      exit 1
    end;
    (dt, final)
  in
  let results =
    List.map
      (fun bench ->
        let best = ref infinity in
        List.iter
          (fun seed ->
            let dt, _ = run_one ~bench ~seed in
            if dt < !best then best := dt)
          seeds;
        (* Warm arm: the exact resubmission of the last seed is a pure
           boundary-store serve — no queue wait, no execution. *)
        let warm_dt, warm = run_one ~bench ~seed:(List.nth seeds (List.length seeds - 1)) in
        if warm.Job.cache <> Job.Cache_full then begin
          Printf.eprintf "FATAL: %s: warm resubmission for %s was not store-served\n"
            tag bench;
          exit 1
        end;
        (bench, !best, warm_dt))
      benches
  in
  get_ok (tag ^ ": shutdown") (Client.shutdown client);
  Client.close client;
  (match Unix.waitpid [] daemon with
  | _, Unix.WEXITED 0 -> ()
  | _, _ ->
      Printf.eprintf "FATAL: %s: daemon exited uncleanly\n" tag;
      exit 1);
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) worker_pids;
  Unix.close ready_r;
  Unix.close ready_w;
  (results, state_dir)

(* ------------------------------------------------------------------ *)

let () =
  let opts = parse_options () in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "adaptive sampling benchmark (%s, best of %d cold seeds, host cores %d)\n%!"
    (if opts.quick then "quick" else "full")
    opts.reps host_cores;
  if host_cores < 2 then
    Printf.printf
      "NOTE: single-core host — the fleet row measures protocol + lease overhead, \
       not parallel speedup\n%!";
  let programs = programs ~quick:opts.quick in
  let resolve name =
    match List.assoc_opt name programs with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "unknown benchmark %S" name)
  in
  let seeds = seeds ~reps:opts.reps in
  let benches = List.map fst programs in

  (* Serial references (pool-free, safe before the forks): per bench the
     oracle result of every seed — both the timing baseline and the
     bit-identity reference for every daemon-stored boundary. *)
  let serial =
    List.map
      (fun (name, program) ->
        let golden = Golden.run program in
        Printf.printf "%-12s %6d sites, %7d cases, %.1f%%/round, cap %d\n%!" name
          (Golden.sites golden) (Golden.cases golden)
          (100. *. aconfig.Adaptive.round_fraction)
          aconfig.Adaptive.max_rounds;
        let best = ref infinity in
        let oracles =
          List.map
            (fun seed ->
              let t0 = Unix.gettimeofday () in
              let result, _ = AE.run ~config:aconfig ~name ~seed golden in
              let dt = Unix.gettimeofday () -. t0 in
              if dt < !best then best := dt;
              (seed, result))
            seeds
        in
        (name, golden, oracles, !best))
      programs
  in

  let local_results, local_state =
    bench_daemon_config ~resolve ~tag:"daemon_local" ~workers:0 ~benches ~seeds
  in
  let fleet_results, fleet_state =
    bench_daemon_config ~resolve ~tag:"fleet_2" ~workers:2 ~benches ~seeds
  in

  (* Verify: every stored boundary (both daemons, every seed) is
     bit-identical to the serial oracle. A fast wrong fleet is worthless. *)
  let verify state_dir tag =
    let store = BS.open_ ~root:(Server.boundaries_dir ~state_dir) in
    List.iter
      (fun (name, golden, oracles, _) ->
        let fingerprint = Ftb_util.Fingerprint.of_floats golden.Golden.values in
        List.iter
          (fun (seed, (result : Adaptive.result)) ->
            let key =
              BS.key_of ~bench:name ~fingerprint ~spec:Models.default_spec
                ~fuel:(Job.default_spec ~bench:name).Job.fuel ~config:aconfig ~seed
            in
            match BS.find store ~key with
            | None ->
                Printf.eprintf "FATAL: %s: no stored boundary for %s seed %d\n" tag
                  name seed;
                exit 1
            | Some entry ->
                let sites = Boundary.sites result.Adaptive.boundary in
                let same = ref (entry.BS.rounds = result.Adaptive.rounds) in
                for i = 0 to sites - 1 do
                  if
                    !same
                    && Int64.bits_of_float entry.BS.thresholds.(i)
                       <> Int64.bits_of_float (Boundary.threshold result.Adaptive.boundary i)
                  then same := false
                done;
                if not !same then begin
                  Printf.eprintf
                    "FATAL: %s: boundary for %s seed %d differs from the serial engine\n"
                    tag name seed;
                  exit 1
                end)
          oracles)
      serial
  in
  verify local_state "daemon_local";
  verify fleet_state "fleet_2";

  (* Query latency, measured against the local daemon's store on disk:
     one find_latest (index walk + entry load + envelope check) and the
     per-call cost of the pure (site, bit) prediction. *)
  let store = BS.open_ ~root:(Server.boundaries_dir ~state_dir:local_state) in
  let first_bench = List.hd benches in
  let t0 = Unix.gettimeofday () in
  let entry =
    match BS.find_latest store ~bench:first_bench () with
    | Some e -> e
    | None ->
        Printf.eprintf "FATAL: find_latest missed after verification\n";
        exit 1
  in
  let find_latest_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let queries = 10_000 in
  let width = Models.spec_width entry.BS.spec in
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for i = 0 to queries - 1 do
    let p = BS.query entry ~site:(i mod entry.BS.sites) ~bit:(i mod width) in
    if p.BS.outcome = `Masked then incr acc
  done;
  let query_us = 1_000_000. *. (Unix.gettimeofday () -. t0) /. float_of_int queries in
  Printf.printf
    "boundary store: find_latest %.3f ms, query %.3f us/call (%d/%d predicted masked)\n%!"
    find_latest_ms query_us !acc queries;

  (* Report. *)
  let rows =
    List.map
      (fun (name, golden, oracles, serial_s) ->
        let _, local_s, warm_local = List.find (fun (b, _, _) -> b = name) local_results in
        let _, fleet_s, warm_fleet = List.find (fun (b, _, _) -> b = name) fleet_results in
        let samples = Array.length (snd (List.hd oracles)).Adaptive.samples in
        Printf.printf "  %-14s %8.3f s serial  %8.3f s daemon  %8.3f s fleet_2  \
                       (warm serve %.4f s, %d samples of %d cases)\n%!"
          name serial_s local_s fleet_s (Float.min warm_local warm_fleet) samples
          (Golden.cases golden);
        (name, Golden.cases golden, samples, serial_s, local_s, fleet_s,
         Float.min warm_local warm_fleet))
      serial
  in

  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"benchmark\": \"adaptive-sampling\",\n";
  bpf "  \"quick\": %b,\n" opts.quick;
  bpf "  \"cold_seeds\": %d,\n" opts.reps;
  bpf "  \"host_cores\": %d,\n" host_cores;
  bpf "  \"round_fraction\": %.4f,\n" aconfig.Adaptive.round_fraction;
  bpf "  \"max_rounds\": %d,\n" aconfig.Adaptive.max_rounds;
  bpf "  \"identical_boundaries\": true,\n";
  bpf "  \"find_latest_ms\": %.4f,\n" find_latest_ms;
  bpf "  \"query_us_per_call\": %.4f,\n" query_us;
  bpf "  \"query_under_1ms\": %b,\n" (query_us < 1000.);
  if host_cores < 2 then
    bpf
      "  \"note\": \"single-core host: the fleet row measures protocol + lease \
       overhead, not parallel speedup — the 2x-fewer-wall-seconds target only \
       applies on multi-core hosts\",\n";
  bpf "  \"programs\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, cases, samples, serial_s, local_s, fleet_s, warm_s) ->
      bpf "    {\n";
      bpf "      \"name\": \"%s\",\n" name;
      bpf "      \"cases\": %d,\n" cases;
      bpf "      \"samples\": %d,\n" samples;
      bpf "      \"modes\": {\n";
      bpf "        \"serial\": { \"seconds\": %.6f },\n" serial_s;
      bpf "        \"daemon_local\": { \"seconds\": %.6f },\n" local_s;
      bpf "        \"fleet_2\": { \"seconds\": %.6f },\n" fleet_s;
      bpf "        \"warm_store_serve\": { \"seconds\": %.6f }\n" warm_s;
      bpf "      },\n";
      bpf "      \"speedup_fleet_2_vs_serial\": %.3f,\n" (serial_s /. fleet_s);
      bpf "      \"fleet_overhead_pct_vs_serial\": %.2f,\n"
        (100. *. ((fleet_s /. serial_s) -. 1.));
      bpf "      \"warm_speedup_vs_cold_serial\": %.1f\n" (serial_s /. warm_s);
      bpf "    }%s\n" (if i = n - 1 then "" else ",")
    )
    rows;
  bpf "  ]\n";
  bpf "}\n";
  let oc = open_out opts.json in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" opts.json
