(** A broadcast wake-up with a timed wait.

    OCaml 5.1's [Condition] has no timed wait, so a thread that must both
    react to events and check deadlines used to sleep in a fixed poll
    tick. A [Wakeup.t] replaces that tick: every state change that can
    unblock a waiter calls {!signal}, and {!wait} returns as soon as a
    signal lands or its deadline passes, whichever is first.

    The usage pattern avoids lost wake-ups with a generation counter:
    read {!generation} in the same critical section that finds nothing to
    do, release the caller's own lock, then [wait ~since]. A signal raised
    anywhere after that read makes [wait] return at once.

    Deadlines are served by one process-wide timer thread that sleeps in
    [Unix.select] on a self-pipe until the earliest registered deadline;
    a waiter with an earlier deadline re-arms it through the pipe. No
    thread spins: an idle process with no waiters makes no system calls.
    Deadlines are [Unix.gettimeofday] instants. *)

type t

val create : unit -> t

val generation : t -> int
(** The current generation; bumped by every {!signal}. *)

val signal : t -> unit
(** Wake every current waiter. Cheap enough to call under the caller's
    own lock on every state change. *)

val wait : t -> since:int -> until:float -> unit
(** Block until the generation differs from [since] or [until] has
    passed. Returns immediately if either already holds. Must not be
    called while holding a lock that a signalling thread needs. *)
