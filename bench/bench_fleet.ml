(* Fleet scaling benchmark (dune alias @fleet-bench, not part of runtest).

   Measures exhaustive-campaign wall clock through the distributed worker
   fleet: a forked daemon with the lease scheduler wired in, and 1/2/4
   forked worker processes pulling shards over the Unix-domain socket,
   against two local references — the plain serial engine in-process and
   the daemon running the same job on its local pool (0 workers).

   Every configuration's outcome bytes are asserted bit-identical to the
   serial engine before any number is reported. Results go to a JSON file
   (default BENCH_fleet.json) together with the host core count: on a
   single-core host the fleet rows measure protocol + lease overhead, not
   parallel speedup, and the JSON says so rather than dressing it up.

   All forks happen before the parent touches any domain pool (a pool's
   worker domains do not survive fork()); the parent only ever runs the
   serial engine and the socket client.

   Usage: bench_fleet.exe [--quick] [--json PATH] [--reps N] *)

module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Checkpoint = Ftb_campaign.Checkpoint
module Job = Ftb_service.Job
module Client = Ftb_service.Client
module Server = Ftb_service.Server
module Fleet = Ftb_dist.Fleet
module Worker = Ftb_dist.Worker

type options = { quick : bool; json : string; reps : int }

let parse_options () =
  let quick = ref false in
  let json = ref "BENCH_fleet.json" in
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
          "unknown argument %s\nusage: bench_fleet.exe [--quick] [--json PATH] [--reps N]\n"
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
      ("ir.stencil3", Ir.to_program (Programs.stencil3 ~n:24 ~sweeps:3 ~seed:13 ~tolerance:1e-9));
    ]
  else
    [
      ("ir.dot", Ir.to_program (Programs.dot ~n:160 ~seed:11 ~tolerance:1e-9));
      ("ir.stencil3", Ir.to_program (Programs.stencil3 ~n:48 ~sweeps:8 ~seed:13 ~tolerance:1e-9));
      ("ir.matvec", Ir.to_program (Programs.matvec ~n:24 ~seed:14 ~tolerance:1e-9));
    ]

let time ~reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* ------------------------------------------------------------------ *)
(* Daemon + worker process plumbing (mirrors test/fleet_smoke.ml).     *)

let fresh_dir tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_bench_fleet_%s_%d" tag (Unix.getpid ()))
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

let spawn_daemon ~resolve ~audit_rate ~state_dir sock =
  match Unix.fork () with
  | 0 ->
      (* The shipped poll: idle lease requests are held and answered as
         soon as a shard is published, so the poll interval no longer
         adds to lease round-trip latency. *)
      let fleet = Fleet.create ~audit_rate () in
      let config =
        {
          (Server.default_config ~state_dir) with
          Server.domains = 1;
          resolve;
          (* Cache off: with the compositional profile cache on, every rep
             after the first is a sub-millisecond full hit and the bench
             would measure cache serves, not fleet execution (and the
             audit-overhead comparison would be pure noise). *)
          cache = false;
          extension = Some (Fleet.extension fleet);
          wave_runner = Some (Fleet.wave_runner fleet);
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
      Printf.eprintf "FATAL: %s: daemon error %s: %s\n" what e.Client.code e.Client.message;
      exit 1

(* Run one (program, shard_size) job through a daemon with [workers]
   attached worker processes, best-of-reps; returns (seconds, last job
   id, state_dir) so the caller can verify the persisted bytes. *)
let bench_daemon_config ~opts ~resolve ~tag ~workers ~audit_rate specs =
  let state_dir = fresh_dir tag in
  let sock = Filename.concat state_dir "daemon.sock" in
  let ready_r, ready_w = Unix.pipe () in
  let daemon = spawn_daemon ~resolve ~audit_rate ~state_dir sock in
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
  let results =
    List.map
      (fun (bench, shard_size) ->
        let spec = { (Job.default_spec ~bench) with Job.shard_size } in
        let last_id = ref 0 in
        let (), seconds =
          time ~reps:opts.reps (fun () ->
              let id = get_ok (tag ^ ": submit") (Client.submit client spec) in
              last_id := id;
              let final = get_ok (tag ^ ": watch") (Client.watch client id) in
              if final.Job.status <> Job.Completed then begin
                Printf.eprintf "FATAL: %s: job for %s did not complete\n" tag bench;
                exit 1
              end)
        in
        (bench, seconds, !last_id))
      specs
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

type mode_result = { mode : string; seconds : float; cases_per_sec : float }

(* The audited arm runs the default production audit rate; its throughput
   must stay within [audit_budget_pct] of the unaudited 2-worker arm —
   re-executing ~2% of shards cannot be allowed to cost more than 5%. *)
let audited_rate = 0.02
let audit_budget_pct = 5.0

let () =
  let opts = parse_options () in
  let host_cores = Domain.recommended_domain_count () in
  let configs =
    [
      ("daemon_local", 0, 0.);
      ("fleet_1", 1, 0.);
      ("fleet_2", 2, 0.);
      ("fleet_4", 4, 0.);
      ("fleet_2_audited", 2, audited_rate);
    ]
  in
  Printf.printf "fleet scaling benchmark (%s, best of %d, host cores %d)\n%!"
    (if opts.quick then "quick" else "full")
    opts.reps host_cores;
  if host_cores < 2 then
    Printf.printf
      "NOTE: single-core host — fleet rows measure protocol + lease overhead, \
       not parallel speedup\n%!";
  let programs = programs ~quick:opts.quick in
  let resolve name =
    match List.assoc_opt name programs with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "unknown benchmark %S" name)
  in
  (* Serial references first: pool-free, but goldens must exist before the
     forks only as *data* — Golden.run spawns no domains, so this is safe
     ahead of the daemon/worker forks. *)
  let rows =
    List.map
      (fun (name, program) ->
        let golden = Golden.run program in
        let cases = Golden.cases golden in
        (* ~24 shards: enough waves that lease turnaround shows up, small
           enough that a shard is real work rather than one round-trip. *)
        let shard_size = max 64 ((cases + 23) / 24) in
        Printf.printf "%-12s %6d sites, %7d cases, shard %d\n%!" name
          (Golden.sites golden) cases shard_size;
        let reference, serial_s = time ~reps:opts.reps (fun () -> Ground_truth.run golden) in
        (name, golden, cases, shard_size, reference, serial_s))
      programs
  in
  let specs = List.map (fun (name, _, _, shard_size, _, _) -> (name, shard_size)) rows in
  (* One daemon per configuration, every program through it. *)
  let daemon_runs =
    List.map
      (fun (label, workers, audit_rate) ->
        let results =
          bench_daemon_config ~opts ~resolve ~tag:label ~workers ~audit_rate specs
        in
        let results, state_dir = results in
        (label, results, state_dir))
      configs
  in
  (* Verify: the last persisted checkpoint of every (program, config) is
     bit-identical to the serial engine. A fast wrong fleet is worthless —
     and the audited arm must be *verified* identical, not assumed. *)
  List.iter
    (fun (label, results, state_dir) ->
      List.iter
        (fun (bench, _, id) ->
          let _, golden, _, shard_size, reference, _ =
            List.find (fun (n, _, _, _, _, _) -> n = bench) rows
          in
          let path = Job.checkpoint_path ~state_dir id in
          match Checkpoint.load ~path ~shard_size golden with
          | state
            when Checkpoint.is_complete state
                 && Bytes.equal reference.Ground_truth.outcomes state.Checkpoint.outcomes ->
              ()
          | _ | (exception _) ->
              Printf.eprintf "FATAL: %s outcomes differ from the serial engine on %s\n"
                label bench;
              exit 1)
        results)
    daemon_runs;
  let audit_ok = ref true in
  let mode_rows =
    List.map
      (fun (name, _, cases, _, _, serial_s) ->
        let fc = float_of_int cases in
        let modes =
          { mode = "serial"; seconds = serial_s; cases_per_sec = fc /. serial_s }
          :: List.map
               (fun (label, results, _) ->
                 let _, seconds, _ = List.find (fun (b, _, _) -> b = name) results in
                 { mode = label; seconds; cases_per_sec = fc /. seconds })
               daemon_runs
        in
        let rate m = (List.find (fun r -> r.mode = m) modes).cases_per_sec in
        List.iter
          (fun { mode; seconds; cases_per_sec } ->
            Printf.printf "  %-15s %8.3f s   %12.0f cases/s\n%!" mode seconds cases_per_sec)
          modes;
        Printf.printf
          "  %s: vs serial — daemon %.2fx, fleet_1 %.2fx, fleet_2 %.2fx, fleet_4 %.2fx\n%!"
          name
          (rate "daemon_local" /. rate "serial")
          (rate "fleet_1" /. rate "serial")
          (rate "fleet_2" /. rate "serial")
          (rate "fleet_4" /. rate "serial");
        let overhead_pct =
          100. *. ((rate "fleet_2" /. rate "fleet_2_audited") -. 1.)
        in
        let within = overhead_pct <= audit_budget_pct in
        if not within then audit_ok := false;
        Printf.printf "  %s: audit overhead at rate %.2f — %.1f%% (budget %.0f%%)%s\n%!"
          name audited_rate overhead_pct audit_budget_pct
          (if within then "" else "  ** OVER BUDGET **");
        (name, cases, modes, overhead_pct, within))
      rows
  in
  (* JSON out. *)
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"benchmark\": \"fleet-scaling\",\n";
  bpf "  \"quick\": %b,\n" opts.quick;
  bpf "  \"reps\": %d,\n" opts.reps;
  bpf "  \"host_cores\": %d,\n" host_cores;
  bpf "  \"worker_domains\": 1,\n";
  bpf "  \"identical_outcomes\": true,\n";
  bpf "  \"audit_rate_audited_mode\": %.3f,\n" audited_rate;
  bpf "  \"audit_budget_pct\": %.1f,\n" audit_budget_pct;
  bpf "  \"audit_within_budget\": %b,\n" !audit_ok;
  if host_cores < 2 then
    bpf
      "  \"note\": \"single-core host: fleet rows measure protocol + lease overhead, \
       not parallel speedup\",\n";
  bpf "  \"programs\": [\n";
  List.iteri
    (fun i (name, cases, modes, overhead_pct, within) ->
      bpf "    {\n";
      bpf "      \"name\": \"%s\",\n" name;
      bpf "      \"cases\": %d,\n" cases;
      bpf "      \"modes\": {\n";
      List.iteri
        (fun j { mode; seconds; cases_per_sec } ->
          bpf "        \"%s\": { \"seconds\": %.6f, \"cases_per_sec\": %.1f }%s\n" mode
            seconds cases_per_sec
            (if j = List.length modes - 1 then "" else ","))
        modes;
      bpf "      },\n";
      let rate m = (List.find (fun r -> r.mode = m) modes).cases_per_sec in
      bpf "      \"speedup_fleet_1_vs_serial\": %.3f,\n" (rate "fleet_1" /. rate "serial");
      bpf "      \"speedup_fleet_2_vs_serial\": %.3f,\n" (rate "fleet_2" /. rate "serial");
      bpf "      \"speedup_fleet_4_vs_serial\": %.3f,\n" (rate "fleet_4" /. rate "serial");
      bpf "      \"speedup_fleet_2_vs_fleet_1\": %.3f,\n" (rate "fleet_2" /. rate "fleet_1");
      bpf "      \"audit_overhead_pct\": %.2f,\n" overhead_pct;
      bpf "      \"audit_within_budget\": %b\n" within;
      bpf "    }%s\n" (if i = List.length mode_rows - 1 then "" else ","))
    mode_rows;
  bpf "  ]\n";
  bpf "}\n";
  let oc = open_out opts.json in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" opts.json;
  if not !audit_ok then
    Printf.printf
      "WARNING: audit overhead exceeded its %.0f%% budget on at least one program \
       (see %s)\n%!"
      audit_budget_pct opts.json
