type t = { m : Mutex.t; c : Condition.t; mutable gen : int }

let now () = Unix.gettimeofday ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create () = { m = Mutex.create (); c = Condition.create (); gen = 0 }
let generation t = locked t.m (fun () -> t.gen)

let signal t =
  locked t.m (fun () ->
      t.gen <- t.gen + 1;
      Condition.broadcast t.c)

(* The process-wide timer. [pending] maps a ticket to the deadline and
   the wake-up to broadcast when it passes. The thread sleeps toward
   [armed], the earliest deadline it last saw; a registration with an
   earlier deadline writes one byte to the self-pipe so the thread
   re-reads the table. Lock order: a waiter holds its [t.m] and then
   takes [timer_m]; the thread never holds [timer_m] while it takes a
   [t.m]. *)
let timer_m = Mutex.create ()
let pending : (int, float * t) Hashtbl.t = Hashtbl.create 16
let next_ticket = ref 0
let armed = ref infinity

(* The thread and its pipe belong to the process that started them: a
   forked child inherits the flag but not the thread, so it starts its
   own. *)
let owner = ref None

let rec timer_loop r =
  let earliest =
    locked timer_m (fun () ->
        let e = Hashtbl.fold (fun _ (d, _) acc -> Float.min d acc) pending infinity in
        armed := e;
        e)
  in
  let timeout = if earliest = infinity then -1. else Float.max 0. (earliest -. now ()) in
  (match Unix.select [ r ] [] [] timeout with
  | [], _, _ -> ()
  | _ :: _, _, _ -> ignore (Unix.read r (Bytes.create 64) 0 64 : int)
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ());
  let due =
    locked timer_m (fun () ->
        let t_now = now () in
        let due =
          Hashtbl.fold
            (fun ticket (d, w) acc -> if d <= t_now then (ticket, w) :: acc else acc)
            pending []
        in
        List.iter (fun (ticket, _) -> Hashtbl.remove pending ticket) due;
        due)
  in
  List.iter (fun (_, w) -> locked w.m (fun () -> Condition.broadcast w.c)) due;
  timer_loop r

let timer_pipe () =
  let pid = Unix.getpid () in
  match !owner with
  | Some (p, w) when p = pid -> w
  | Some _ | None ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock w;
      Hashtbl.reset pending;
      armed := infinity;
      owner := Some (pid, w);
      ignore (Thread.create timer_loop r : Thread.t);
      w

let add_deadline until w =
  locked timer_m (fun () ->
      let pipe = timer_pipe () in
      incr next_ticket;
      let ticket = !next_ticket in
      Hashtbl.replace pending ticket (until, w);
      if until < !armed then begin
        armed := until;
        try ignore (Unix.write_substring pipe "x" 0 1 : int)
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* A full pipe already guarantees a prompt re-read. *) ()
      end;
      ticket)

let remove_deadline ticket = locked timer_m (fun () -> Hashtbl.remove pending ticket)

let wait t ~since ~until =
  locked t.m (fun () ->
      (* A fresh registration per sleep: the timer drops a deadline once
         it fires, and a wake-up by the timer with the clock still short
         of [until] (a clock step) must not leave the waiter unarmed. *)
      while t.gen = since && now () < until do
        let ticket = add_deadline until t in
        Condition.wait t.c t.m;
        remove_deadline ticket
      done)
