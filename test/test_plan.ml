(* The distributed adaptive planner and the servable boundary store:
   engine ≡ serial oracle (bytes), kill/resume at round granularity,
   checkpoint hygiene, and store round-trips / quarantine / warm-start
   invariance. *)

module Adaptive = Ftb_core.Adaptive
module AE = Ftb_plan.Adaptive_engine
module RC = Ftb_plan.Round_checkpoint
module BS = Ftb_plan.Boundary_store
module Boundary = Ftb_core.Boundary
module Golden = Ftb_trace.Golden
module Fault = Ftb_trace.Fault
module Runner = Ftb_trace.Runner
module Models = Ftb_inject.Models
module Sample_run = Ftb_inject.Sample_run
module Rng = Ftb_util.Rng

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let small_config =
  { Adaptive.default_config with Adaptive.round_fraction = 0.02; max_rounds = 50 }

let tmp name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) ("ftb_plan_" ^ name) in
  if Sys.file_exists path then Sys.remove path;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let tmp_store name =
  let root = Filename.concat (Filename.get_temp_dir_name ()) ("ftb_bstore_" ^ name) in
  rm_rf root;
  (root, BS.open_ ~root)

(* Bit-exact comparison: the whole point of the planner is that no
   execution path may perturb a single bit of the serial oracle. *)
let check_same_result msg (a : Adaptive.result) (b : Adaptive.result) =
  Alcotest.(check int) (msg ^ ": rounds") a.Adaptive.rounds b.Adaptive.rounds;
  Alcotest.(check string)
    (msg ^ ": stop reason")
    (Adaptive.stop_reason_to_string a.Adaptive.stop_reason)
    (Adaptive.stop_reason_to_string b.Adaptive.stop_reason);
  Alcotest.(check int)
    (msg ^ ": sample count")
    (Array.length a.Adaptive.samples)
    (Array.length b.Adaptive.samples);
  Array.iteri
    (fun i sa ->
      let sb = b.Adaptive.samples.(i) in
      Alcotest.(check int)
        (Printf.sprintf "%s: sample %d case" msg i)
        (Fault.to_case sa.Sample_run.fault)
        (Fault.to_case sb.Sample_run.fault);
      Alcotest.(check bool)
        (Printf.sprintf "%s: sample %d outcome" msg i)
        true
        (Runner.outcome_equal sa.Sample_run.outcome sb.Sample_run.outcome))
    a.Adaptive.samples;
  let sites = Boundary.sites a.Adaptive.boundary in
  Alcotest.(check int) (msg ^ ": boundary sites") sites
    (Boundary.sites b.Adaptive.boundary);
  for i = 0 to sites - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "%s: threshold %d bytes" msg i)
      (Int64.bits_of_float (Boundary.threshold a.Adaptive.boundary i))
      (Int64.bits_of_float (Boundary.threshold b.Adaptive.boundary i))
  done

(* ------------------------------------------------------------------ *)
(* Engine ≡ serial oracle                                              *)

let test_engine_matches_serial_oracle () =
  let g = Lazy.force golden in
  let oracle = Adaptive.run ~config:small_config (Rng.create ~seed:11) g in
  let result, stats = AE.run ~config:small_config ~name:"lin" ~seed:11 g in
  check_same_result "engine vs Adaptive.run" oracle result;
  Alcotest.(check int) "all samples fresh" (Array.length result.Adaptive.samples)
    stats.AE.fresh_samples;
  Alcotest.(check int) "nothing resumed" 0 stats.AE.resumed_samples

let test_engine_exec_order_independent () =
  (* An exec that executes the round back-to-front but returns samples in
     draw order must not change a byte — outcomes are pure functions of
     (golden, model, case). This is the property that lets a fleet run
     rounds anywhere. *)
  let g = Lazy.force golden in
  let spec = Models.default_spec in
  let exec ~round:_ ~cases =
    let n = Array.length cases in
    let out = Array.make n None in
    for i = n - 1 downto 0 do
      out.(i) <- Some (Sample_run.run_case_model spec g cases.(i))
    done;
    Array.map Option.get out
  in
  let oracle, _ = AE.run ~config:small_config ~name:"lin" ~seed:12 g in
  let result, _ = AE.run ~config:small_config ~exec ~name:"lin" ~seed:12 g in
  check_same_result "reversed exec vs in-order exec" oracle result

(* ------------------------------------------------------------------ *)
(* Kill / resume                                                       *)

let test_cancel_then_resume_bit_identical () =
  let g = Lazy.force golden in
  let ckpt = tmp "resume.ckpt" in
  let oracle, _ = AE.run ~config:small_config ~name:"lin" ~seed:13 g in
  (* Cancel at the edge after the first round folds. *)
  let folded = ref 0 in
  (match
     AE.run ~config:small_config ~checkpoint:ckpt
       ~on_round:(fun ~round:_ ~drawn:_ ~masked:_ ~sdc:_ ~crash:_ -> incr folded)
       ~cancel:(fun () -> !folded >= 1)
       ~name:"lin" ~seed:13 g
   with
  | exception AE.Cancelled -> ()
  | _ -> Alcotest.fail "cancel ignored");
  Alcotest.(check bool) "checkpoint written before Cancelled" true
    (Sys.file_exists ckpt);
  let result, stats = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:13 g in
  check_same_result "resumed vs undisturbed" oracle result;
  Alcotest.(check bool) "resume actually inherited rounds" true
    (stats.AE.resumed_rounds >= 1);
  Alcotest.(check int) "fresh + resumed partition the samples"
    (Array.length result.Adaptive.samples)
    (stats.AE.fresh_samples + stats.AE.resumed_samples);
  Sys.remove ckpt

let test_finished_checkpoint_short_circuits () =
  let g = Lazy.force golden in
  let ckpt = tmp "finished.ckpt" in
  let first, _ = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:14 g in
  let again, stats = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:14 g in
  check_same_result "replayed vs original" first again;
  Alcotest.(check int) "replay executes nothing" 0 stats.AE.fresh_samples;
  Sys.remove ckpt

let test_mismatched_checkpoint_ignored () =
  let g = Lazy.force golden in
  let ckpt = tmp "mismatch.ckpt" in
  let _ = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:15 g in
  (* Same path, different campaign identity (seed): the stale checkpoint
     must be ignored, not spliced into the wrong campaign. *)
  let oracle, _ = AE.run ~config:small_config ~name:"lin" ~seed:16 g in
  let result, stats = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:16 g in
  check_same_result "fresh run despite stale checkpoint" oracle result;
  Alcotest.(check int) "nothing resumed across identities" 0 stats.AE.resumed_samples;
  Sys.remove ckpt

let test_corrupt_checkpoint_quarantined () =
  let g = Lazy.force golden in
  let ckpt = tmp "corrupt.ckpt" in
  let oc = open_out_bin ckpt in
  output_string oc "not an envelope at all\n";
  close_out oc;
  let oracle, _ = AE.run ~config:small_config ~name:"lin" ~seed:17 g in
  let result, _ = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:17 g in
  check_same_result "cold start after corruption" oracle result;
  Sys.remove ckpt

let test_round_checkpoint_roundtrip () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:18) g in
  let path = tmp "rc.ckpt" in
  let state =
    {
      RC.name = "lin";
      sites = Golden.sites g;
      spec = Models.default_spec;
      fuel = Some 4096;
      fingerprint = Ftb_util.Fingerprint.of_floats g.Golden.values;
      config = small_config;
      seed = 18;
      rng_state = 0xDEAD_BEEFL;
      rounds = r.Adaptive.rounds;
      samples = r.Adaptive.samples;
      (* An in-flight checkpoint: a pending draw and no stop reason —
         finished checkpoints (stop set) must not carry a pending round
         and the loader enforces it. *)
      pending = Some [| 3; 1; 4; 1; 5 |];
      stop = None;
    }
  in
  RC.save ~path state;
  let back = RC.load ~path in
  Alcotest.(check string) "name" state.RC.name back.RC.name;
  Alcotest.(check int) "rounds" state.RC.rounds back.RC.rounds;
  Alcotest.(check int) "seed" state.RC.seed back.RC.seed;
  Alcotest.(check int64) "rng state" state.RC.rng_state back.RC.rng_state;
  Alcotest.(check (option (array int))) "pending draw" state.RC.pending back.RC.pending;
  Alcotest.(check int) "samples" (Array.length state.RC.samples)
    (Array.length back.RC.samples);
  Array.iteri
    (fun i sa ->
      Alcotest.(check int)
        (Printf.sprintf "sample %d case" i)
        (Fault.to_case sa.Sample_run.fault)
        (Fault.to_case back.RC.samples.(i).Sample_run.fault))
    state.RC.samples;
  (match back.RC.stop with
  | None -> ()
  | Some _ -> Alcotest.fail "stop reason invented");
  (* And the finished shape round-trips its stop reason. *)
  RC.save ~path { state with RC.pending = None; stop = Some Adaptive.Converged };
  (match (RC.load ~path).RC.stop with
  | Some Adaptive.Converged -> ()
  | _ -> Alcotest.fail "stop reason lost");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Round log crash contract                                            *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* A private directory per test, so quarantine evidence is attributable. *)
let fresh_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_plan_%s_%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let quarantined dir =
  let q = Filename.concat dir "quarantine" in
  Sys.file_exists q && Array.length (Sys.readdir q) > 0

(* A finished campaign's complete log, its serial oracle and its records. *)
let finished_log ~dir ~seed =
  let g = Lazy.force golden in
  let path = Filename.concat dir "full.log" in
  let oracle = Adaptive.run ~config:small_config (Rng.create ~seed) g in
  let result, _ = AE.run ~config:small_config ~checkpoint:path ~name:"lin" ~seed g in
  check_same_result "logged run vs oracle" oracle result;
  (oracle, read_all path, RC.scan ~path)

(* Resume from [contents] (what a kill left on disk) and check the run
   finishes as the oracle did, leaving a complete log behind. *)
let resume_matches ~dir ~seed ~oracle msg contents =
  let g = Lazy.force golden in
  let path = Filename.concat dir "resume.log" in
  write_all path contents;
  let result, _ = AE.run ~config:small_config ~checkpoint:path ~name:"lin" ~seed g in
  check_same_result msg oracle result;
  let back = RC.load ~path in
  Alcotest.(check bool) (msg ^ ": log finished") true (back.RC.stop <> None);
  Alcotest.(check int) (msg ^ ": logged rounds") oracle.Adaptive.rounds back.RC.rounds

let test_round_log_every_prefix_resumes () =
  let dir = fresh_dir "prefix" in
  let seed = 31 in
  let oracle, full, records = finished_log ~dir ~seed in
  let kinds = List.map fst records in
  Alcotest.(check bool) "log shape: header, base, draws and folds, stop" true
    (match kinds with
    | RC.Header :: RC.Base :: rest ->
        List.length (List.filter (( = ) RC.Fold) rest) = oracle.Adaptive.rounds
        && List.rev rest |> List.hd = RC.Stop
    | _ -> false);
  (* Every state a kill between appends can leave: the compacted start,
     then one more record at a time. *)
  List.iter
    (fun (kind, stop) ->
      if kind <> RC.Header then
        resume_matches ~dir ~seed ~oracle
          (Printf.sprintf "prefix ending at byte %d" stop)
          (String.sub full 0 stop))
    records;
  (* Every kill inside an append: each byte cut of the last draw, the
     last fold and the stop record. *)
  let ends = List.map snd records |> Array.of_list in
  let n = Array.length ends in
  List.iter
    (fun k ->
      for cut = ends.(k - 1) + 1 to ends.(k) - 1 do
        resume_matches ~dir ~seed ~oracle
          (Printf.sprintf "torn record %d cut at byte %d" k cut)
          (String.sub full 0 cut)
      done)
    [ n - 3; n - 2; n - 1 ];
  Alcotest.(check bool) "torn tails are never quarantined" false (quarantined dir);
  rm_rf dir

let test_round_log_flip_quarantined () =
  let seed = 32 in
  let probe = fresh_dir "flip_probe" in
  let oracle, full, records = finished_log ~dir:probe ~seed in
  rm_rf probe;
  let ends = List.map snd records |> Array.of_list in
  (* Flip the low and a high length byte and a payload byte of every
     record but the last, and a byte of the magic line. A flipped high
     length byte points past the end of the file, like a torn append
     would; only the length's complement tells them apart. *)
  let starts = Array.init (Array.length ends) (fun i -> if i = 0 then 16 else ends.(i - 1)) in
  let targets =
    3
    :: List.concat_map
         (fun i -> [ starts.(i); starts.(i) + 2; (starts.(i) + ends.(i)) / 2 + 6 ])
         (List.init (Array.length ends - 1) Fun.id)
  in
  List.iter
    (fun pos ->
      let dir = fresh_dir "flip" in
      let path = Filename.concat dir "resume.log" in
      let flipped = Bytes.of_string full in
      Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x10));
      write_all path (Bytes.to_string flipped);
      (match RC.load ~path with
      | _ -> Alcotest.fail (Printf.sprintf "byte %d flipped, yet the log loaded" pos)
      | exception Ftb_inject.Persist.Format_error _ -> ());
      let g = Lazy.force golden in
      let result, stats = AE.run ~config:small_config ~checkpoint:path ~name:"lin" ~seed g in
      check_same_result (Printf.sprintf "cold start after flipping byte %d" pos) oracle result;
      Alcotest.(check int) "nothing resumed from a corrupt log" 0 stats.AE.resumed_samples;
      Alcotest.(check bool)
        (Printf.sprintf "flipped byte %d quarantined" pos)
        true (quarantined dir);
      rm_rf dir)
    targets

let test_round_log_v1_ignored () =
  let g = Lazy.force golden in
  let dir = fresh_dir "v1" in
  let path = Filename.concat dir "job.ckpt" in
  let seed = 33 in
  (* A file of the previous format for this very campaign, as its writer
     left it after a cold start. *)
  Ftb_inject.Persist.save_enveloped ~path (fun buf ->
      Printf.bprintf buf "ftb-adaptive-v1 lin %d %s none %s %h %h %d 1 1 %d %Lx 0 -\n"
        (Golden.sites g)
        (Models.spec_to_string Models.default_spec)
        (Ftb_util.Fingerprint.of_floats g.Golden.values)
        small_config.Adaptive.round_fraction small_config.Adaptive.stop_sdc_fraction
        small_config.Adaptive.max_rounds seed
        (Rng.state (Rng.create ~seed)));
  Alcotest.(check bool) "v1 file is not resumable" true (RC.resume ~path = None);
  let oracle = Adaptive.run ~config:small_config (Rng.create ~seed) g in
  let result, stats = AE.run ~config:small_config ~checkpoint:path ~name:"lin" ~seed g in
  check_same_result "cold start over a v1 file" oracle result;
  Alcotest.(check int) "nothing resumed from v1" 0 stats.AE.resumed_rounds;
  Alcotest.(check bool) "v1 file not quarantined" false (quarantined dir);
  Alcotest.(check bool) "replaced by a finished round log" true
    ((RC.load ~path).RC.stop <> None);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Boundary store                                                      *)

let entry_of ?(seed = 21) ?(created = 1000.) ?(prov = BS.prov_local) g =
  let r = Adaptive.run ~config:small_config (Rng.create ~seed) g in
  BS.entry_of_result ~prov ~bench:"lin" ~spec:Models.default_spec ~fuel:None
    ~config:small_config ~seed ~created g r

let test_store_put_find_roundtrip () =
  let g = Lazy.force golden in
  let _, store = tmp_store "roundtrip" in
  let entry = entry_of g in
  BS.put store entry;
  match BS.find store ~key:entry.BS.key with
  | None -> Alcotest.fail "stored entry not found by key"
  | Some back ->
      Alcotest.(check string) "bench" entry.BS.bench back.BS.bench;
      Alcotest.(check string) "fingerprint" entry.BS.fingerprint back.BS.fingerprint;
      Alcotest.(check int) "sites" entry.BS.sites back.BS.sites;
      Alcotest.(check int) "rounds" entry.BS.rounds back.BS.rounds;
      Alcotest.(check int) "samples" entry.BS.samples back.BS.samples;
      Alcotest.(check int) "masked" entry.BS.masked back.BS.masked;
      Alcotest.(check int) "sdc" entry.BS.sdc back.BS.sdc;
      Alcotest.(check int) "crash" entry.BS.crash back.BS.crash;
      Alcotest.(check int) "tallies partition samples" entry.BS.samples
        (back.BS.masked + back.BS.sdc + back.BS.crash);
      Array.iteri
        (fun i t ->
          Alcotest.(check int64)
            (Printf.sprintf "threshold %d bytes" i)
            (Int64.bits_of_float t)
            (Int64.bits_of_float back.BS.thresholds.(i)))
        entry.BS.thresholds;
      Alcotest.(check (array int)) "support" entry.BS.support back.BS.support;
      Alcotest.(check int64) "uncertainty bytes"
        (Int64.bits_of_float entry.BS.uncertainty)
        (Int64.bits_of_float back.BS.uncertainty)

let test_store_key_is_campaign_identity () =
  let g = Lazy.force golden in
  let fingerprint = Ftb_util.Fingerprint.of_floats g.Golden.values in
  let key seed config =
    BS.key_of ~bench:"lin" ~fingerprint ~spec:Models.default_spec ~fuel:None ~config
      ~seed
  in
  Alcotest.(check string) "key is deterministic" (key 1 small_config)
    (key 1 small_config);
  Alcotest.(check bool) "seed is part of the identity" true
    (key 1 small_config <> key 2 small_config);
  Alcotest.(check bool) "config is part of the identity" true
    (key 1 small_config
    <> key 1 { small_config with Adaptive.round_fraction = 0.03 })

let test_store_find_latest_and_gc () =
  let g = Lazy.force golden in
  let _, store = tmp_store "latest" in
  BS.put store (entry_of ~seed:31 ~created:10. g);
  BS.put store (entry_of ~seed:32 ~created:30. g);
  BS.put store (entry_of ~seed:33 ~created:20. g);
  (match BS.find_latest store ~bench:"lin" () with
  | Some e -> Alcotest.(check int) "newest entry wins" 32 e.BS.seed
  | None -> Alcotest.fail "find_latest missed");
  Alcotest.(check int) "list sees all" 3 (List.length (BS.list store));
  Alcotest.(check int) "gc removes the old" 2 (BS.gc store ~keep:1);
  (match BS.list store with
  | [ survivor ] -> Alcotest.(check int) "gc keeps the newest" 32 survivor.BS.seed
  | l -> Alcotest.fail (Printf.sprintf "gc left %d entries" (List.length l)));
  Alcotest.(check bool) "negative keep rejected" true
    (match BS.gc store ~keep:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_store_corrupt_entry_quarantined () =
  let g = Lazy.force golden in
  let _, store = tmp_store "quarantine" in
  let entry = entry_of g in
  BS.put store entry;
  let path = BS.path_of_key store entry.BS.key in
  let oc = open_out_bin path in
  output_string oc "garbage overwriting the envelope\n";
  close_out oc;
  (match BS.find store ~key:entry.BS.key with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupt entry served");
  Alcotest.(check bool) "corpse moved to quarantine" true
    ((BS.stats store).BS.quarantined > 0);
  (* The store heals: a re-put of the same campaign serves again. *)
  BS.put store entry;
  Alcotest.(check bool) "re-put heals the store" true
    (BS.find store ~key:entry.BS.key <> None)

let test_warm_start_never_changes_boundary () =
  (* The warm-start contract: serving a stored entry for the exact
     campaign identity must equal re-running the campaign cold — same
     threshold bytes, same tallies, zero drift across the store hop. *)
  let g = Lazy.force golden in
  let _, store = tmp_store "warm" in
  let entry = entry_of ~seed:41 g in
  BS.put store entry;
  let cold = Adaptive.run ~config:small_config (Rng.create ~seed:41) g in
  match BS.find store ~key:entry.BS.key with
  | None -> Alcotest.fail "warm entry missing"
  | Some warm ->
      Alcotest.(check int) "rounds" cold.Adaptive.rounds warm.BS.rounds;
      Alcotest.(check int) "samples" (Array.length cold.Adaptive.samples) warm.BS.samples;
      Alcotest.(check string) "stop reason"
        (Adaptive.stop_reason_to_string cold.Adaptive.stop_reason)
        (Adaptive.stop_reason_to_string warm.BS.stop);
      Array.iteri
        (fun i t ->
          Alcotest.(check int64)
            (Printf.sprintf "threshold %d bytes" i)
            (Int64.bits_of_float (Boundary.threshold cold.Adaptive.boundary i))
            (Int64.bits_of_float t))
        warm.BS.thresholds

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let prop_store_query_agrees_with_model =
  (* For any in-range (site, bit), [query] must classify exactly as the
     stored thresholds do on the model's corruption of the stored golden
     value — the zero-execution answer is the boundary's answer. *)
  let g = Lazy.force golden in
  let entry = entry_of ~seed:51 g in
  let width = Models.spec_width entry.BS.spec in
  QCheck.Test.make ~name:"store query agrees with the stored boundary" ~count:200
    QCheck.(pair (int_bound (entry.BS.sites - 1)) (int_bound (width - 1)))
    (fun (site, bit) ->
      let p = BS.query entry ~site ~bit in
      let v = entry.BS.golden_values.(site) in
      let corrupted = Models.case_corrupt entry.BS.spec ~case:((site * width) + bit) v in
      let err = abs_float (corrupted -. v) in
      let err = if Float.is_nan err then infinity else err in
      let expect = if err <= entry.BS.thresholds.(site) then `Masked else `Sdc in
      p.BS.outcome = expect
      && p.BS.threshold = entry.BS.thresholds.(site)
      && p.BS.site_support = entry.BS.support.(site))

let prop_store_query_rejects_out_of_range =
  let g = Lazy.force golden in
  let entry = entry_of ~seed:52 g in
  let width = Models.spec_width entry.BS.spec in
  QCheck.Test.make ~name:"store query rejects out-of-range cases" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (ds, db) ->
      let bad ~site ~bit =
        match BS.query entry ~site ~bit with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      bad ~site:(entry.BS.sites + ds) ~bit:0
      && bad ~site:(-1 - ds) ~bit:0
      && bad ~site:0 ~bit:(width + db)
      && bad ~site:0 ~bit:(-1 - db))

let prop_store_roundtrip_random_campaigns =
  (* Any seed's converged campaign survives the store byte-for-byte. *)
  let g = Lazy.force golden in
  let _, store = tmp_store "prop_roundtrip" in
  QCheck.Test.make ~name:"store round-trips any campaign bit-exactly" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let entry = entry_of ~seed ~created:(float_of_int seed) g in
      BS.put store entry;
      match BS.find store ~key:entry.BS.key with
      | None -> false
      | Some back ->
          back.BS.rounds = entry.BS.rounds
          && back.BS.samples = entry.BS.samples
          && back.BS.seed = entry.BS.seed
          && Array.for_all2
               (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
               entry.BS.thresholds back.BS.thresholds
          && back.BS.support = entry.BS.support)

let suite =
  [
    Alcotest.test_case "engine matches serial oracle" `Quick
      test_engine_matches_serial_oracle;
    Alcotest.test_case "exec order independence" `Quick
      test_engine_exec_order_independent;
    Alcotest.test_case "cancel then resume is bit-identical" `Quick
      test_cancel_then_resume_bit_identical;
    Alcotest.test_case "finished checkpoint short-circuits" `Quick
      test_finished_checkpoint_short_circuits;
    Alcotest.test_case "mismatched checkpoint ignored" `Quick
      test_mismatched_checkpoint_ignored;
    Alcotest.test_case "corrupt checkpoint quarantined" `Quick
      test_corrupt_checkpoint_quarantined;
    Alcotest.test_case "round checkpoint round-trip" `Quick
      test_round_checkpoint_roundtrip;
    Alcotest.test_case "round log resumes from every prefix and torn tail" `Quick
      test_round_log_every_prefix_resumes;
    Alcotest.test_case "round log corruption is quarantined" `Quick
      test_round_log_flip_quarantined;
    Alcotest.test_case "v1 round checkpoint ignored" `Quick test_round_log_v1_ignored;
    Alcotest.test_case "store put/find round-trip" `Quick test_store_put_find_roundtrip;
    Alcotest.test_case "key is the campaign identity" `Quick
      test_store_key_is_campaign_identity;
    Alcotest.test_case "find_latest and gc" `Quick test_store_find_latest_and_gc;
    Alcotest.test_case "corrupt entry quarantined" `Quick
      test_store_corrupt_entry_quarantined;
    Alcotest.test_case "warm start never changes the boundary" `Quick
      test_warm_start_never_changes_boundary;
    Helpers.qcheck_to_alcotest prop_store_query_agrees_with_model;
    Helpers.qcheck_to_alcotest prop_store_query_rejects_out_of_range;
    Helpers.qcheck_to_alcotest prop_store_roundtrip_random_campaigns;
  ]
