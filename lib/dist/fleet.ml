module Json = Ftb_service.Json
module Server = Ftb_service.Server
module Wakeup = Ftb_service.Wakeup
module Engine = Ftb_campaign.Engine
module Checkpoint = Ftb_campaign.Checkpoint
module P = Worker_proto

type worker_info = {
  wid : int;
  w_name : string;
  w_domains : int;
  mutable last_seen : float;
  mutable holds : int;  (* lease requests of this worker being held *)
  mutable detached : bool;
  mutable quarantined : bool;
  mutable w_committed : int;
  mutable w_failed : int;
  mutable w_disputed : int;
}

(* One committed remote shard, recorded for audit re-execution and cache
   provenance. [r_digest] is the attestation digest recomputed server-side
   over the decoded bytes (so it reflects what actually landed in the
   campaign buffer, not what the frame claimed); [r_attested] is whether
   the frame itself carried a digest — legacy frames without one are
   always audited. [r_overwritten] marks a disputed shard whose bytes the
   local oracle replaced. *)
type audit_record = {
  r_shard : int;
  r_lo : int;
  r_hi : int;
  r_wid : int;
  r_name : string;
  r_digest : string;
  r_attested : bool;
  r_cases : int array option;
      (* [Some cases] for a sparse sampled shard: the audit oracle
         re-executes exactly these case indices with tracing and compares
         codec blobs, not dense outcome bytes. *)
  mutable r_audited : bool;
  mutable r_overwritten : bool;
}

(* The wave currently being executed for the scheduler thread blocked in
   [run_wave]. [commit] is the engine's guarded write into the campaign's
   outcome buffer; it is called only under the fleet mutex and only when
   the lease table answered [`Committed] for that shard. *)
type active = {
  a_job : int;
  a_bench : string;
  a_fuel : int option;
  a_model : Ftb_inject.Models.spec;
  a_fingerprint : string;
  table : Lease.t;
  a_commit : shard:int -> Bytes.t -> unit;
  a_cases : int array option;
      (* [Some cases] marks the active wave as a sparse sampled round (the
         adaptive planner's drawn case list): grants slice [cases.(lo..hi)]
         and results carry [Samples] codec blobs, not dense outcome
         bytes. *)
}

type stats = {
  granted : int;
  remote_committed : int;
  local_committed : int;
  expired : int;
  stale : int;
  failed : int;
  audited : int;
  disputed : int;
  quarantined : int;
  bad_digest : int;
}

type job_provenance = { jp_workers : string list; jp_audited : bool }

type t = {
  mutex : Mutex.t;
  (* One fleet-wide wake-up, signalled by every change that can unblock
     a waiter: a lease table published; a shard committed, failed,
     released or expired; a worker registered, detached or quarantined;
     the daemon stopping. Its waiters are the scheduler's drive loop and
     held lease requests. *)
  wake : Wakeup.t;
  mutable stopping : bool;
  lease_ttl : float;
  poll : float;
  audit_rate : float;
  audit_seed : int;
  quarantine_after : int;
  mutable on_quarantine : (name:string -> disputes:int -> unit) option;
  mutable workers : worker_info list;
  mutable next_wid : int;
  mutable next_lease : int;
  mutable active : active option;
  (* Audit state for the job currently (or most recently) driven through
     [wave_runner]; the daemon's scheduler runs one job at a time, so a
     single slot suffices. Records accumulate across the job's waves. *)
  mutable audit_job : int option;
  mutable audit_records : audit_record list;
  mutable audited_wids : int list;
  (* Quarantine registry. [barred] is keyed by operator-facing worker
     name so a banned worker cannot shed its record by reconnecting under
     a fresh wid; [quarantined_wids] additionally rejects frames from an
     already-pruned quarantined registration. Both are bounded. *)
  mutable barred : (string * int) list;
  mutable quarantined_wids : int list;
  dispute_counts : (int, int) Hashtbl.t;
  mutable granted : int;
  mutable remote_committed : int;
  mutable local_committed : int;
  mutable expired : int;
  mutable stale : int;
  mutable failed : int;
  mutable audited : int;
  mutable disputed : int;
  mutable quarantined_total : int;
  mutable bad_digest : int;
}

let max_barred = 64
let max_quarantined_wids = 256
let now () = Unix.gettimeofday ()

let create ?(lease_ttl = 5.0) ?(poll = 0.05) ?(audit_rate = 0.02)
    ?(audit_seed = 0x7f4a7c15) ?(quarantine_after = 2) () =
  if lease_ttl <= 0. then invalid_arg "Fleet.create: lease_ttl must be positive";
  if poll <= 0. then invalid_arg "Fleet.create: poll must be positive";
  if audit_rate < 0. || audit_rate > 1. then
    invalid_arg "Fleet.create: audit_rate must be within [0, 1]";
  if quarantine_after < 1 then
    invalid_arg "Fleet.create: quarantine_after must be positive";
  {
    mutex = Mutex.create ();
    wake = Wakeup.create ();
    stopping = false;
    lease_ttl;
    poll;
    audit_rate;
    audit_seed;
    quarantine_after;
    on_quarantine = None;
    workers = [];
    next_wid = 1;
    next_lease = 1;
    active = None;
    audit_job = None;
    audit_records = [];
    audited_wids = [];
    barred = [];
    quarantined_wids = [];
    dispute_counts = Hashtbl.create 8;
    granted = 0;
    remote_committed = 0;
    local_committed = 0;
    expired = 0;
    stale = 0;
    failed = 0;
    audited = 0;
    disputed = 0;
    quarantined_total = 0;
    bad_digest = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let wake t = Wakeup.signal t.wake

let expire_locked t table ~now:t_now =
  let n = Lease.expire table ~now:t_now in
  if n > 0 then begin
    t.expired <- t.expired + n;
    wake t
  end

let set_on_quarantine t f = with_lock t (fun () -> t.on_quarantine <- Some f)

let stats t =
  with_lock t (fun () ->
      {
        granted = t.granted;
        remote_committed = t.remote_committed;
        local_committed = t.local_committed;
        expired = t.expired;
        stale = t.stale;
        failed = t.failed;
        audited = t.audited;
        disputed = t.disputed;
        quarantined = t.quarantined_total;
        bad_digest = t.bad_digest;
      })

(* A worker is live while its frames keep arriving: idle workers refresh
   [last_seen] at both ends of every held lease request (and count as
   live while one is held), busy ones on every heartbeat, so a SIGKILLed
   worker goes silent and ages out after ~3 lease TTLs — the same
   deadline family as the stuck-job watchdog, applied to remote
   executors. *)
let live_window t = 3. *. t.lease_ttl

let heard_within w ~now:t_now ~window = w.holds > 0 || t_now -. w.last_seen <= window

let live_workers_locked t ~now:t_now =
  List.filter
    (fun w ->
      (not w.detached) && (not w.quarantined)
      && heard_within w ~now:t_now ~window:(live_window t))
    t.workers

let live_workers t = with_lock t (fun () -> List.length (live_workers_locked t ~now:(now ())))

(* Aging out of the live set is recoverable (a stalled worker's next frame
   revives it), so entries are only *pruned* — removed from [t.workers]
   outright — once detached or silent for far longer than any plausible
   stall. Pruning runs on registration (the only point where the list
   grows) and on the scheduler's periodic expire pass, which bounds the
   list for a long-lived daemon with endlessly reconnecting workers. A
   pruned worker that somehow returns gets a typed [unknown_worker] and
   exits visibly; worker ids are never reused. *)
let prune_window t = 10. *. live_window t

(* Quarantined entries ride the same bounded-list path as detached ones:
   the wid stays barred via [quarantined_wids] and the name via [barred],
   so pruning the registry row loses no enforcement, only the row. *)
let prune_workers_locked t ~now:t_now =
  t.workers <-
    List.filter
      (fun w ->
        (not w.detached) && (not w.quarantined)
        && heard_within w ~now:t_now ~window:(prune_window t))
      t.workers

let live_slots_locked t ~now:t_now =
  List.fold_left (fun acc w -> acc + max 1 w.w_domains) 0 (live_workers_locked t ~now:t_now)

let find_worker_locked t wid =
  List.find_opt (fun w -> w.wid = wid) t.workers

let touch_worker_locked t wid =
  match find_worker_locked t wid with
  | Some w ->
      w.last_seen <- now ();
      true
  | None -> false

(* ------------------------------------------------------------------ *)
(* Protocol handlers (connection threads). Strict request/response: each
   returns exactly one reply frame. *)

(* Worker names key the quarantine bar, so they must survive a trip
   through provenance tokens and CLI arguments unambiguously: anything
   outside [A-Za-z0-9._-] is folded to '-'. *)
let sanitize_name name =
  String.map
    (fun c ->
      match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> c | _ -> '-')
    name

let quarantined_locked t wid = List.mem wid t.quarantined_wids

let handle_register t json =
  let domains = match P.opt_int "domains" json with Some d when d >= 1 -> d | _ -> 1 in
  let name = Option.map sanitize_name (P.opt_str "name" json) in
  with_lock t (fun () ->
      let t_now = now () in
      prune_workers_locked t ~now:t_now;
      let barred_as =
        Option.bind name (fun n -> List.assoc_opt n t.barred |> Option.map (fun d -> (n, d)))
      in
      match barred_as with
      | Some (n, disputes) ->
          P.error_frame "quarantined"
            (Printf.sprintf
               "worker name %S is quarantined (%d disputed shards); an operator must run `ftb workers --clear %s`"
               n disputes n)
      | None ->
          let wid = t.next_wid in
          t.next_wid <- wid + 1;
          let w_name =
            match name with Some n when n <> "" -> n | _ -> Printf.sprintf "worker-%d" wid
          in
          t.workers <-
            {
              wid;
              w_name;
              w_domains = domains;
              last_seen = t_now;
              detached = false;
              holds = 0;
              quarantined = false;
              w_committed = 0;
              w_failed = 0;
              w_disputed = 0;
            }
            :: t.workers;
          wake t;
          P.registered ~worker:wid ~ttl:t.lease_ttl)

(* Grant the first leasable shard of the active table to [wid], if any.
   A grant whose reply cannot be written (the worker died while its
   request was held) releases its lease at once instead of leaving the
   shard to sit out the TTL. *)
let grant_locked t ~wid =
  match t.active with
  | None -> None
  | Some a -> (
      let t_now = now () in
      expire_locked t a.table ~now:t_now;
      match
        Lease.acquire a.table ~max_cases:P.max_result_cases ~holder:wid ~now:t_now
          ~ttl:t.lease_ttl
      with
      | None -> None
      | Some g ->
          t.granted <- t.granted + 1;
          let frame =
            P.grant_frame
              {
                P.job_id = a.a_job;
                bench = a.a_bench;
                fuel = a.a_fuel;
                model = a.a_model;
                fingerprint = a.a_fingerprint;
                lease_id = g.Lease.lease_id;
                shard = g.Lease.shard;
                lo = g.Lease.lo;
                hi = g.Lease.hi;
                ttl = t.lease_ttl;
                cases =
                  Option.map
                    (fun cases -> Array.sub cases g.Lease.lo (g.Lease.hi - g.Lease.lo))
                    a.a_cases;
              }
          in
          let undelivered () =
            with_lock t (fun () ->
                if Lease.release a.table ~lease_id:g.Lease.lease_id then begin
                  t.expired <- t.expired + 1;
                  wake t
                end)
          in
          Some { Server.frame; undelivered })

(* A lease request with nothing leasable is held: the connection thread
   sleeps on the fleet wake-up (outside the fleet mutex) until a shard
   becomes leasable or [poll] elapses, then answers [Wait 0] so the
   worker asks again at once. Idle traffic stays one request per [poll]
   per worker, but a published round reaches a waiting worker
   immediately instead of at its next poll tick. Quarantine, detach and
   registration are re-checked under the lock before every grant. *)
let handle_lease t json =
  let wid = P.req_int "worker" json in
  let deadline = now () +. t.poll in
  let refusal_locked () =
    if quarantined_locked t wid then
      Some
        (P.error_frame "quarantined"
           (Printf.sprintf "worker %d is quarantined; leases are refused" wid))
    else
      match find_worker_locked t wid with
      | Some w when not w.detached -> None
      | Some _ -> Some (P.error_frame "unknown_worker" (Printf.sprintf "worker %d detached" wid))
      | None -> Some (P.error_frame "unknown_worker" (Printf.sprintf "no worker %d" wid))
  in
  let start =
    with_lock t (fun () ->
        match refusal_locked () with
        | Some frame -> Error frame
        | None ->
            let w = Option.get (find_worker_locked t wid) in
            w.last_seen <- now ();
            w.holds <- w.holds + 1;
            Ok w)
  in
  match start with
  | Error frame -> Server.reply frame
  | Ok w ->
      Fun.protect
        ~finally:(fun () ->
          with_lock t (fun () ->
              w.holds <- w.holds - 1;
              w.last_seen <- now ()))
        (fun () ->
          let rec attempt () =
            let step =
              with_lock t (fun () ->
                  match refusal_locked () with
                  | Some frame -> `Reply (Server.reply frame)
                  | None -> (
                      match grant_locked t ~wid with
                      | Some reply -> `Reply reply
                      | None ->
                          if t.stopping then `Reply (Server.reply (P.wait_frame ~poll:t.poll))
                          else if now () >= deadline then
                            `Reply (Server.reply (P.wait_frame ~poll:0.))
                          else `Hold (Wakeup.generation t.wake)))
            in
            match step with
            | `Reply reply -> reply
            | `Hold gen ->
                Wakeup.wait t.wake ~since:gen ~until:deadline;
                attempt ()
          in
          attempt ())

let handle_heartbeat t json =
  let wid = P.req_int "worker" json in
  let lease = P.opt_int "lease" json in
  with_lock t (fun () ->
      if not (touch_worker_locked t wid) then
        P.error_frame "unknown_worker" (Printf.sprintf "no worker %d" wid)
      else
        let valid =
          match (t.active, lease) with
          | Some a, Some lease_id ->
              Lease.renew a.table ~lease_id ~now:(now ()) ~ttl:t.lease_ttl
          | _ -> false
        in
        P.heartbeat_reply ~valid)

let handle_result t json =
  let wid = P.req_int "worker" json in
  let job = P.req_int "job" json in
  let lease_id = P.req_int "lease" json in
  let shard = P.req_int "shard" json in
  (* Every answer below either changed a shard (commit, failure, a
     digest-mismatch release) or was stale; one wake-up after the lock
     covers them all. *)
  Fun.protect ~finally:(fun () -> wake t) @@ fun () ->
  with_lock t (fun () ->
      ignore (touch_worker_locked t wid : bool);
      if quarantined_locked t wid then
        P.error_frame "quarantined"
          (Printf.sprintf "worker %d is quarantined; results are refused" wid)
      else
      match t.active with
      | None ->
          (* The wave is over (the job finished, was cancelled, or failed);
             a straggler's work is simply dropped. *)
          t.stale <- t.stale + 1;
          P.result_ack_frame ~committed:false ~stale:true
      | Some a when a.a_job <> job ->
          (* A straggler from an earlier job: commits are keyed by shard
             index, and a later job may reuse the index with the same
             bounds, so without this check the old bench's outcome bytes
             would land in the new campaign. Within one job late results
             are byte-identical (pure function of the golden trace) and
             first-result-wins stays sound; across jobs they are dropped. *)
          t.stale <- t.stale + 1;
          P.result_ack_frame ~committed:false ~stale:true
      | Some a -> (
          match P.opt_str "error" json with
          | Some message -> (
              match Lease.fail a.table ~lease_id ~message with
              | `Committed ->
                  t.failed <- t.failed + 1;
                  (match find_worker_locked t wid with
                  | Some w -> w.w_failed <- w.w_failed + 1
                  | None -> ());
                  P.result_ack_frame ~committed:true ~stale:false
              | `Stale ->
                  t.stale <- t.stale + 1;
                  P.result_ack_frame ~committed:false ~stale:true)
          | None -> (
              (* Shared tail for both payload kinds once [bytes] passed the
                 shard's structural validation. Attestation: recompute the
                 digest over the decoded bytes. A frame whose own digest
                 disagrees was corrupted in transit or encoding — reject it
                 typed and release the lease so the shard is retried; this
                 is not a dispute (the worker's execution is not in
                 question, its frame is). *)
              let accept ~lo ~hi ~r_cases bytes =
                let sdigest =
                  P.outcome_digest ~job ~shard ~lo ~hi
                    ~fingerprint:a.a_fingerprint bytes
                in
                let frame_digest = P.opt_str "digest" json in
                match frame_digest with
                | Some d when d <> sdigest ->
                    t.bad_digest <- t.bad_digest + 1;
                    ignore
                      (Lease.fail a.table ~lease_id
                         ~message:"attestation digest mismatch"
                        : [ `Committed | `Stale ]);
                    P.error_frame "digest_mismatch"
                      (Printf.sprintf
                         "shard %d outcome bytes do not match their attestation digest"
                         shard)
                | Some _ | None -> (
                    match Lease.commit a.table ~shard with
                    | `Committed ->
                        a.a_commit ~shard bytes;
                        t.remote_committed <- t.remote_committed + 1;
                        let r_name =
                          match find_worker_locked t wid with
                          | Some w ->
                              w.w_committed <- w.w_committed + 1;
                              w.w_name
                          | None -> Printf.sprintf "worker-%d" wid
                        in
                        t.audit_records <-
                          {
                            r_shard = shard;
                            r_lo = lo;
                            r_hi = hi;
                            r_wid = wid;
                            r_name;
                            r_digest = sdigest;
                            r_attested = frame_digest <> None;
                            r_cases;
                            r_audited = false;
                            r_overwritten = false;
                          }
                          :: t.audit_records;
                        P.result_ack_frame ~committed:true ~stale:false
                    | `Stale | `Unknown ->
                        t.stale <- t.stale + 1;
                        P.result_ack_frame ~committed:false ~stale:true)
              in
              match (P.opt_str "data" json, P.opt_str "samples" json, a.a_cases) with
              | None, None, _ ->
                  P.error_frame "bad_request" "result carries neither data nor error"
              | Some _, _, Some _ ->
                  P.error_frame "bad_result"
                    (Printf.sprintf
                       "shard %d belongs to a sparse sampled round; dense outcome bytes refused"
                       shard)
              | _, Some _, None ->
                  P.error_frame "bad_result"
                    (Printf.sprintf
                       "shard %d is a dense range shard; sparse samples refused" shard)
              | Some hex, _, None -> (
                  match Lease.bounds a.table ~shard with
                  | None ->
                      t.stale <- t.stale + 1;
                      P.result_ack_frame ~committed:false ~stale:true
                  | Some (lo, hi) ->
                      (* Typed size guard on the receiving end: a blob that
                         does not exactly cover [lo, hi) is rejected before
                         any byte reaches the campaign. *)
                      if String.length hex > 2 * (hi - lo) then
                        P.error_frame "oversized_result"
                          (Printf.sprintf
                             "shard %d result is %d hex chars; expected %d"
                             shard (String.length hex) (2 * (hi - lo)))
                      else if String.length hex < 2 * (hi - lo) then
                        P.error_frame "bad_result"
                          (Printf.sprintf
                             "shard %d result is %d hex chars; expected %d"
                             shard (String.length hex) (2 * (hi - lo)))
                      else
                        let bytes =
                          try Some (P.bytes_of_hex hex) with P.Decode_error _ -> None
                        in
                        (match bytes with
                        | None -> P.error_frame "bad_result" "result blob is not valid hex"
                        | Some bytes -> accept ~lo ~hi ~r_cases:None bytes))
              | None, Some hex, Some wave_cases -> (
                  match Lease.bounds a.table ~shard with
                  | None ->
                      t.stale <- t.stale + 1;
                      P.result_ack_frame ~committed:false ~stale:true
                  | Some (lo, hi) -> (
                      let bytes =
                        try Some (P.bytes_of_hex hex) with P.Decode_error _ -> None
                      in
                      match bytes with
                      | None ->
                          P.error_frame "bad_result" "samples blob is not valid hex"
                      | Some bytes -> (
                          (* Structural validation before any sample can
                             reach the boundary fold: the blob must decode,
                             cover exactly this shard's slice of the drawn
                             round, and name the granted cases in grant
                             order. *)
                          match Ftb_inject.Sample_codec.decode (Bytes.to_string bytes) with
                          | exception Ftb_inject.Sample_codec.Format_error msg ->
                              P.error_frame "bad_result"
                                (Printf.sprintf "shard %d samples blob is corrupt: %s"
                                   shard msg)
                          | samples ->
                              if Array.length samples <> hi - lo then
                                P.error_frame "bad_result"
                                  (Printf.sprintf
                                     "shard %d carries %d samples; expected %d" shard
                                     (Array.length samples) (hi - lo))
                              else
                                let width = Ftb_inject.Models.spec_width a.a_model in
                                let aligned = ref true in
                                Array.iteri
                                  (fun i s ->
                                    let case =
                                      (s.Ftb_inject.Sample_run.fault.Ftb_trace.Fault.site
                                      * width)
                                      + s.Ftb_inject.Sample_run.fault.Ftb_trace.Fault.bit
                                    in
                                    if case <> wave_cases.(lo + i) then aligned := false)
                                  samples;
                                if not !aligned then
                                  P.error_frame "bad_result"
                                    (Printf.sprintf
                                       "shard %d samples do not match the granted case list"
                                       shard)
                                else accept ~lo ~hi ~r_cases:(Some (Array.sub wave_cases lo (hi - lo))) bytes))))))

let handle_detach t json =
  let wid = P.req_int "worker" json in
  with_lock t (fun () ->
      (match find_worker_locked t wid with
      | Some w ->
          w.detached <- true;
          (match t.active with
          | Some a -> t.expired <- t.expired + Lease.release_holder a.table ~holder:wid
          | None -> ())
      | None -> ());
      wake t;
      P.detached_frame)

let handle_workers t _json =
  with_lock t (fun () ->
      let t_now = now () in
      let rows =
        t.workers
        |> List.map (fun w ->
               {
                 P.row_wid = w.wid;
                 row_name = w.w_name;
                 row_domains = w.w_domains;
                 row_age = Float.max 0. (t_now -. w.last_seen);
                 row_committed = w.w_committed;
                 row_failed = w.w_failed;
                 row_disputed = w.w_disputed;
                 row_quarantined = w.quarantined;
               })
        |> List.sort (fun a b -> compare a.P.row_wid b.P.row_wid)
      in
      P.workers_frame rows ~barred:(List.rev t.barred))

let handle_clear t json =
  let name = sanitize_name (P.req_str "name" json) in
  with_lock t (fun () ->
      let cleared = List.mem_assoc name t.barred in
      t.barred <- List.filter (fun (n, _) -> n <> name) t.barred;
      P.cleared_frame ~cleared)

let stop t =
  with_lock t (fun () -> t.stopping <- true);
  wake t

let extension t =
  let handle ~cmd json =
    let bad_request msg = P.error_frame "bad_request" msg in
    let guarded f = Server.reply (try f t json with P.Decode_error msg -> bad_request msg) in
    match cmd with
    | "worker_register" -> Some (guarded handle_register)
    | "worker_lease" -> (
        Some (try handle_lease t json with P.Decode_error msg -> Server.reply (bad_request msg)))
    | "worker_heartbeat" -> Some (guarded handle_heartbeat)
    | "worker_result" -> Some (guarded handle_result)
    | "worker_detach" -> Some (guarded handle_detach)
    | "worker_stats" -> Some (guarded handle_workers)
    | "worker_clear" -> Some (guarded handle_clear)
    | _ -> None
  in
  { Server.handle; on_shutdown = (fun () -> stop t) }

(* ------------------------------------------------------------------ *)
(* Quarantine. Registry mutations happen under the mutex; the operator
   hook fires outside it (the server's hook takes its own locks to purge
   caches and notify watchers, so calling it under the fleet mutex would
   invert lock order). *)

let take_bounded n xs = if List.length xs > n then List.filteri (fun i _ -> i < n) xs else xs

let quarantine_locked t ~wid ~name ~disputes =
  t.quarantined_total <- t.quarantined_total + 1;
  t.barred <- take_bounded max_barred ((name, disputes) :: List.filter (fun (n, _) -> n <> name) t.barred);
  t.quarantined_wids <- take_bounded max_quarantined_wids (wid :: t.quarantined_wids);
  (match find_worker_locked t wid with
  | Some w -> w.quarantined <- true
  | None -> ());
  (* Revoke anything the worker still holds so surviving workers (or the
     local fallback) pick the shards up immediately instead of waiting
     out the lease TTL. *)
  (match t.active with
  | Some a -> t.expired <- t.expired + Lease.release_holder a.table ~holder:wid
  | None -> ());
  wake t

(* ------------------------------------------------------------------ *)
(* The engine-facing wave runner (scheduler thread). *)

let local_holder = 0 (* worker ids start at 1 *)

(* Deterministic audit sampling: a seeded integer hash orders each
   worker's committed shards, and the first [quota] are audited. The
   order depends only on (seed, job, shard), so a re-run of the same
   campaign audits the same shards — reproducibility is the project's
   spine and the audit layer keeps it. *)
let audit_hash t ~job ~shard =
  let h = (shard + 1) * 0x9e3779b1 in
  let h = h lxor (job * 0x85ebca77) lxor t.audit_seed in
  let h = h lxor (h lsr 13) in
  h land max_int

(* Audit and adjudicate the current job's committed shards. Runs on the
   scheduler thread after a wave's lease table is closed ([t.active] is
   [None]), so the record list is quiescent and the engine has not yet
   checkpointed the wave: a disputed shard's bytes are replaced before
   they can ever be persisted. The local executor is the oracle — outcome
   bytes are a pure function of the golden trace, so a recomputed slice
   that disagrees with a worker's digest is a 2-of-2 quorum against it
   (honest-worker agreement is checked the same way, shard by shard). *)
let audit_job_locked_free t ~fuel ~model ~golden ~fingerprint ~commit =
  if t.audit_rate <= 0. then []
  else begin
    let job = match t.audit_job with Some j -> j | None -> -1 in
    let audit_one r =
      with_lock t (fun () -> t.audited <- t.audited + 1);
      let buf =
        match r.r_cases with
        | None ->
            let n = r.r_hi - r.r_lo in
            let buf = Bytes.create n in
            Ftb_inject.Executor.range_into_model ?fuel model golden ~lo:r.r_lo
              ~hi:r.r_hi buf ~off:0;
            buf
        | Some cases ->
            (* Sparse sampled shard: the oracle re-runs the granted cases
               with tracing and compares codec blobs — bit-identical floats
               are the codec's contract, so an honest worker's blob matches
               byte for byte. *)
            Bytes.of_string
              (Ftb_inject.Sample_codec.encode
                 (Array.map
                    (fun case -> Ftb_inject.Sample_run.run_case_model ?fuel model golden case)
                    cases))
      in
      let expect =
        P.outcome_digest ~job ~shard:r.r_shard ~lo:r.r_lo ~hi:r.r_hi
          ~fingerprint buf
      in
      r.r_audited <- true;
      if expect = r.r_digest then true
      else begin
        (* Disputed: the oracle's bytes replace the worker's. The engine
           is still blocked in [run_wave], so the overwrite lands before
           any checkpoint or harvest can observe the lying bytes. *)
        commit ~shard:r.r_shard buf;
        r.r_overwritten <- true;
        false
      end
    in
    let records = with_lock t (fun () -> t.audit_records) in
    let by_wid = Hashtbl.create 8 in
    List.iter
      (fun r ->
        if not r.r_audited then
          Hashtbl.replace by_wid r.r_wid
            (r :: (Option.value ~default:[] (Hashtbl.find_opt by_wid r.r_wid))))
      records;
    let quarantined_now = ref [] in
    Hashtbl.iter
      (fun wid recs ->
        let prior = with_lock t (fun () ->
            Option.value ~default:0 (Hashtbl.find_opt t.dispute_counts wid))
        in
        let first_time =
          with_lock t (fun () -> not (List.mem wid t.audited_wids))
        in
        (* Unattested (legacy-frame) shards are always audited; attested
           ones are sampled. A worker with any prior dispute is fully
           audited from then on — suspicion is sticky for the job. *)
        let forced, pool = List.partition (fun r -> not r.r_attested) recs in
        let picks =
          if prior > 0 then recs
          else begin
            let n = List.length pool in
            let quota =
              int_of_float (Float.round (t.audit_rate *. float_of_int n))
            in
            let quota = if first_time then max 1 quota else quota in
            let quota = min n quota in
            let sorted =
              List.sort
                (fun a b ->
                  compare
                    (audit_hash t ~job ~shard:a.r_shard)
                    (audit_hash t ~job ~shard:b.r_shard))
                pool
            in
            forced @ List.filteri (fun i _ -> i < quota) sorted
          end
        in
        let disputes_here =
          List.fold_left (fun acc r -> if audit_one r then acc else acc + 1) 0 picks
        in
        (* Escalation: any dispute triggers full re-execution of the
           worker's remaining committed shards for this job. *)
        let disputes_here =
          if disputes_here > 0 then
            List.fold_left
              (fun acc r -> if r.r_audited || audit_one r then acc else acc + 1)
              disputes_here recs
          else disputes_here
        in
        with_lock t (fun () ->
            t.audited_wids <- wid :: List.filter (( <> ) wid) t.audited_wids;
            if disputes_here > 0 then begin
              let total = prior + disputes_here in
              Hashtbl.replace t.dispute_counts wid total;
              t.disputed <- t.disputed + disputes_here;
              (match find_worker_locked t wid with
              | Some w -> w.w_disputed <- w.w_disputed + disputes_here
              | None -> ());
              if total >= t.quarantine_after && not (quarantined_locked t wid)
              then begin
                let name =
                  match find_worker_locked t wid with
                  | Some w -> w.w_name
                  | None -> (
                      match List.find_opt (fun r -> r.r_wid = wid) recs with
                      | Some r -> r.r_name
                      | None -> Printf.sprintf "worker-%d" wid)
                in
                quarantine_locked t ~wid ~name ~disputes:total;
                quarantined_now := (name, total) :: !quarantined_now
              end
            end))
      by_wid;
    !quarantined_now
  end

let job_provenance t ~job_id =
  with_lock t (fun () ->
      if t.audit_job <> Some job_id then None
      else
        let surviving =
          List.filter (fun r -> not r.r_overwritten) t.audit_records
        in
        let jp_workers =
          List.fold_left
            (fun acc r -> if List.mem r.r_name acc then acc else r.r_name :: acc)
            [] surviving
          |> List.sort compare
        in
        let jp_audited =
          t.audit_rate > 0. && List.for_all (fun r -> r.r_audited) surviving
        in
        Some { jp_workers; jp_audited })

(* Shared scheduler-thread plumbing of both runners. *)

let begin_job t ~job_id =
  with_lock t (fun () ->
      if t.audit_job <> Some job_id then begin
        t.audit_job <- Some job_id;
        t.audit_records <- [];
        t.audited_wids <- []
      end)

(* Make [tasks] the active lease table and wake held lease requests. *)
let publish t ~job_id ~bench ~fuel ~model ~fingerprint ~commit ~cases tasks =
  with_lock t (fun () ->
      let table = Lease.create ~first_lease:t.next_lease tasks in
      t.active <-
        Some
          {
            a_job = job_id;
            a_bench = bench;
            a_fuel = fuel;
            a_model = model;
            a_fingerprint = fingerprint;
            table;
            a_commit = commit;
            a_cases = cases;
          };
      wake t;
      table)

(* Drive a published table to completion and close it. The loop sleeps
   on the fleet wake-up, so a commit, failure, release or worker change
   is seen at once; deadline checks (lease expiry, liveness, pruning)
   still run at least every [min poll (ttl / 4)]. When no live worker
   remains, [run_local] executes the next pending shard: the local pool
   is the executor of last resort, so the table (and the job) always
   completes. Its leases never expire ([ttl = infinity]) — the local
   runner cannot be SIGKILLed away from under the daemon. *)
let drive t table ~run_local =
  let tick = Float.min t.poll (t.lease_ttl /. 4.) in
  let rec loop () =
    let claim =
      with_lock t (fun () ->
          let t_now = now () in
          prune_workers_locked t ~now:t_now;
          expire_locked t table ~now:t_now;
          if Lease.outstanding table = 0 then begin
            t.next_lease <- Lease.next_lease table;
            t.active <- None;
            `Finished (Lease.results table)
          end
          else
            let local =
              if live_workers_locked t ~now:t_now = [] then
                Lease.acquire table ~holder:local_holder ~now:t_now ~ttl:infinity
              else None
            in
            match local with
            | Some g -> `Local g
            | None -> `Wait (Wakeup.generation t.wake))
    in
    match claim with
    | `Finished results -> results
    | `Local g ->
        run_local g;
        loop ()
    | `Wait gen ->
        Wakeup.wait t.wake ~since:gen ~until:(now () +. tick);
        loop ()
  in
  loop ()

(* Trust-but-verify before the caller sees a byte: sample-audit the job's
   remote commits (escalating on any dispute), then fire the quarantine
   hook for anyone convicted. *)
let audit_and_report t ~fuel ~model ~golden ~fingerprint ~commit =
  let quarantined_now = audit_job_locked_free t ~fuel ~model ~golden ~fingerprint ~commit in
  match with_lock t (fun () -> t.on_quarantine) with
  | Some hook -> List.iter (fun (name, disputes) -> hook ~name ~disputes) quarantined_now
  | None -> ()

let wave_runner t ~job_id ~bench ~fuel ~model ~golden =
  if live_workers t = 0 then None
  else
    let fingerprint = Checkpoint.fingerprint_of_golden golden in
    begin_job t ~job_id;
    let wave_size () =
      with_lock t (fun () -> max 2 (2 * live_slots_locked t ~now:(now ())))
    in
    let run_wave (tasks : Engine.shard_task array) ~commit ~run_local =
      let fits (task : Engine.shard_task) =
        P.result_fits ~cases:(task.Engine.hi - task.Engine.lo)
      in
      let run_one_local (task : Engine.shard_task) =
        match run_local ~lo:task.Engine.lo ~hi:task.Engine.hi with
        | () ->
            with_lock t (fun () -> t.local_committed <- t.local_committed + 1);
            (task.Engine.shard, Ok ())
        | exception e -> (task.Engine.shard, Error (Printexc.to_string e))
      in
      let big, small = Array.to_list tasks |> List.partition (fun task -> not (fits task)) in
      if small = [] then List.map run_one_local big
      else begin
        let leased =
          List.map
            (fun (task : Engine.shard_task) ->
              (task.Engine.shard, task.Engine.lo, task.Engine.hi))
            small
          |> Array.of_list
        in
        let table =
          publish t ~job_id ~bench ~fuel ~model ~fingerprint ~commit ~cases:None leased
        in
        (* The lease table is live before any oversized shard runs on the
           scheduler thread: workers drain the leased (wire-sized) shards
           concurrently instead of idling behind the local work. *)
        let big_results = List.map run_one_local big in
        let run_local (g : Lease.grant) =
          match run_local ~lo:g.Lease.lo ~hi:g.Lease.hi with
          | () ->
              with_lock t (fun () ->
                  match Lease.commit table ~shard:g.Lease.shard with
                  | `Committed -> t.local_committed <- t.local_committed + 1
                  | `Stale | `Unknown -> t.stale <- t.stale + 1)
          | exception e ->
              with_lock t (fun () ->
                  ignore
                    (Lease.fail table ~lease_id:g.Lease.lease_id
                       ~message:(Printexc.to_string e)
                      : [ `Committed | `Stale ]))
        in
        let results = big_results @ drive t table ~run_local in
        (* Audited before returning, so the engine's post-wave checkpoint
           only ever persists adjudicated bytes. *)
        audit_and_report t ~fuel ~model ~golden ~fingerprint ~commit;
        results
      end
    in
    Some { Engine.wave_size; run_wave }

(* ------------------------------------------------------------------ *)
(* The adaptive planner's round runner (scheduler thread). Where
   [wave_runner] distributes dense case ranges, this distributes one
   round's *drawn case list*: shards are slices of the draw (sized so a
   worst-case codec blob still fits a wire frame), grants carry the case
   slice, workers reply with {!Ftb_inject.Sample_codec} blobs, and the
   samples come back aligned index-for-index with the draw — the planner
   folds them in draw order, so the distributed round is bit-identical
   to the serial one. The same lease / expire / local-fallback / audit
   machinery applies; a round with no live workers (or whose workers all
   die mid-round) is simply executed by the local oracle. *)

let round_runner t ~job_id ~bench ~fuel ~model ~golden =
  let fingerprint = Checkpoint.fingerprint_of_golden golden in
  let sites = Ftb_trace.Golden.sites golden in
  let run_local_case case =
    Ftb_inject.Sample_run.run_case_model ?fuel model golden case
  in
  (* Conservative shard sizing: a masked sample can carry a deviation per
     site, so the per-sample bound is the codec's worst case; the hex
     doubling is the same arithmetic as the dense path's
     [max_result_cases]. *)
  let per_sample = Ftb_inject.Sample_codec.encoded_size_upper_bound ~sites in
  let shard_cap = max 1 (P.max_result_cases / per_sample) in
  fun ~round:_ ~cases ->
    let n = Array.length cases in
    if n = 0 then [||]
    else if live_workers t = 0 then Array.map run_local_case cases
    else begin
      begin_job t ~job_id;
      let nshards = ((n + shard_cap - 1) / shard_cap) in
      let tasks =
        Array.init nshards (fun i ->
            let lo = i * shard_cap in
            (i, lo, min n (lo + shard_cap)))
      in
      let slots = Array.make nshards None in
      (* Commits arrive as codec blobs already validated (decode, count,
         case alignment) by [handle_result], or produced by the audit
         oracle itself, so a decode failure here is unreachable; dropping
         the blob (leaving the slot to the post-drive local pass) is the
         safe refusal. *)
      let commit ~shard bytes =
        match Ftb_inject.Sample_codec.decode (Bytes.to_string bytes) with
        | samples -> slots.(shard) <- Some samples
        | exception Ftb_inject.Sample_codec.Format_error _ -> ()
      in
      let table =
        publish t ~job_id ~bench ~fuel ~model ~fingerprint ~commit ~cases:(Some cases)
          tasks
      in
      (* Compute outside the lock, commit under it: if a straggler's
         validated blob won the first-result race meanwhile, its samples
         stay (byte-identical anyway for an honest worker) and this slice
         is dropped as stale. *)
      let run_local (g : Lease.grant) =
        let samples =
          Array.map run_local_case (Array.sub cases g.Lease.lo (g.Lease.hi - g.Lease.lo))
        in
        with_lock t (fun () ->
            match Lease.commit table ~shard:g.Lease.shard with
            | `Committed ->
                slots.(g.Lease.shard) <- Some samples;
                t.local_committed <- t.local_committed + 1
            | `Stale | `Unknown -> t.stale <- t.stale + 1)
      in
      let results = drive t table ~run_local in
      (* [Lease.fail] is permanent — a worker-reported failure leaves its
         shard [Done (Error _)] — so the oracle re-runs those slices
         locally; the round always completes. *)
      List.iter
        (fun (shard, r) ->
          match r with
          | Ok () -> ()
          | Error _ ->
              let _, lo, hi = tasks.(shard) in
              slots.(shard) <-
                Some (Array.map run_local_case (Array.sub cases lo (hi - lo)));
              with_lock t (fun () -> t.local_committed <- t.local_committed + 1))
        results;
      (* A disputed blob is overwritten with the oracle's samples through
         [commit] above before a single sample folds into the boundary. *)
      audit_and_report t ~fuel ~model ~golden ~fingerprint ~commit;
      Array.init n (fun i ->
          let shard = i / shard_cap in
          match slots.(shard) with
          | Some samples -> samples.(i - (shard * shard_cap))
          | None -> run_local_case cases.(i))
    end
