(** Per-round durable state of an adaptive campaign: an append-only round
    log.

    {2 Format}

    After a magic line, the log is a sequence of records, each framed by
    its payload length, the length's bitwise complement and a CRC32 of
    the payload:

    - a {e header} record with the campaign identity (kernel name, sites,
      model, fuel, golden fingerprint, config, seed);
    - a {e base} record with the rounds and RNG state the log starts from
      and the {!Ftb_inject.Sample_codec} blob of every sample folded
      before it (empty on a cold start);
    - per round, a {e draw} record (the drawn cases and the RNG state
      {e after} the draw), then a {e fold} record holding only that
      round's samples as one binary codec blob;
    - a final {e stop} record once the campaign is finished.

    A round therefore costs two appends of O(its new samples) bytes,
    each one [write] to a descriptor opened in append mode — no rewrite
    of earlier rounds and no rename.

    {2 Crash contract}

    A process kill during an append leaves a prefix of the final record.
    Loading replays the records; a torn or bad {e final} record is
    dropped and the state before it is returned — the same "old state or
    new state" guarantee the previous temp-file-plus-rename writer gave.
    A draw without its fold resumes at that round with the same drawn
    cases, so a killed-and-restarted campaign stays bit-identical to an
    undisturbed one. A fold is logged before its round's verdict, so a
    log whose last record is a fold gets the stop reason
    {!Ftb_core.Adaptive.round_verdict} gives for that fold, if any. A bad
    record followed by more bytes, a damaged
    length, or any structural defect is corruption: {!Ftb_inject.Persist.Format_error}
    (callers quarantine and restart cold). Power loss is out of scope:
    nothing calls [fsync].

    The compacted form (header, base, the pending draw if any, the stop
    record if any) is written atomically by {!save} and {!start}: a
    writer uses it on a cold start and after resuming from a log whose
    tail was dropped, so new records never follow a torn one. *)

type t = {
  name : string;  (** program name (space-free token) *)
  sites : int;
  spec : Ftb_inject.Models.spec;
  fuel : int option;
  fingerprint : string;  (** golden-trace fingerprint *)
  config : Ftb_core.Adaptive.config;
  seed : int;
  rng_state : int64;  (** campaign RNG after the last completed draw *)
  rounds : int;  (** rounds folded so far *)
  samples : Ftb_inject.Sample_run.t array;  (** accumulated, draw order *)
  pending : int array option;  (** drawn but not yet folded round *)
  stop : Ftb_core.Adaptive.stop_reason option;  (** set once finished *)
}

val save : path:string -> t -> unit
(** Atomically write [t] in compacted form. Raises [Invalid_argument]
    when [name] is not a space-free token or a finished state still has
    a pending round. *)

val load : path:string -> t
(** Replay a log, dropping a torn final record. Raises
    {!Ftb_inject.Persist.Format_error} on corruption or any structural
    defect, and on a file of the previous [ftb-adaptive-v1] format. *)

val resume : path:string -> (t * bool) option
(** Like {!load}, but [None] for an [ftb-adaptive-v1] file (a different
    campaign as far as resuming goes — ignored, not quarantined) and
    [Some (state, tail_dropped)] otherwise. *)

(** {2 Appending} *)

type log
(** A log open for appending. *)

val start : path:string -> t -> log
(** {!save} [t], then open the log for appending. *)

val reopen : path:string -> log
(** Open an intact log (one whose {!resume} dropped nothing) for
    appending. *)

val append_draw : log -> rng_state:int64 -> int array -> unit
(** Record a round's drawn cases and the RNG state after the draw. *)

val append_fold : log -> Ftb_inject.Sample_run.t array -> unit
(** Record the samples of the pending round, aligned with its draw. *)

val append_stop : log -> Ftb_core.Adaptive.stop_reason -> unit
val close : log -> unit

(** {2 Inspection} *)

type kind = Header | Base | Draw | Fold | Stop

val scan : path:string -> (kind * int) list
(** The intact records of a log in file order, each with the byte offset
    its record ends at ([[]] for an [ftb-adaptive-v1] file). A torn
    final record is left out; damaged framing raises
    {!Ftb_inject.Persist.Format_error}. Drills use it to check where a
    kill landed. *)
