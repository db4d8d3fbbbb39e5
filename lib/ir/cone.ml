module Ctx = Ftb_trace.Ctx
module Program = Ftb_trace.Program

(* Dependent-cone replay: the site-suffix specializer.

   The batched executor already shares a site's injection-free prefix
   across its cases; this analysis removes the *suffix* replay too. One
   instrumented-free analysis run over the structured IR records, for
   every float-producing execution step (an "event": a recorded Fassign or
   Store, or a scratch Flet), which earlier events produced the values it
   reads, the golden values it read, and the golden value it produced.
   That is a complete dataflow graph of the golden execution.

   Corrupting site k can then only change the events reachable from k's
   event through producer->consumer edges — the dependent cone (forward
   slice). Everything outside the cone recomputes its golden value
   bit-identically, so a case's outcome is a pure function of the
   corrupted seed value and the cone: recompute cone events, producers
   before consumers, against a mix of recomputed (in-cone) and golden
   (out-of-cone) operands, re-evaluate the guards the cone feeds, and
   measure the L∞ deviation of the output elements whose final writers
   sit in the cone. No prefix run, no suffix replay, no output-array
   copy.

   All of a site's cases run together, one lane each: every cone member
   is decoded once per site and applied across the lanes in a tight float
   loop, so a site costs O(|cone| × width). Each lane performs exactly the
   IEEE operations of a one-case replay, in the same order.

   The specialization is exact only while the corrupted run follows the
   golden control-flow path. Integer state is untaintable by construction
   (fexpr and iexpr are disjoint), so loops cannot diverge; [Fcmp]
   branches can. A cone that feeds any float branch condition is
   therefore rejected ([cone_case] returns [None]) and the executor falls
   back to prefix-snapshot replay, as it does for sites past the plan's
   horizon. Guards are *not* a rejection reason: tainted guards are
   re-evaluated in execution order, and each lane's first non-finite
   value reproduces the full run's crash reason exactly — mirroring
   [Ctx.guard_finite] (NaN before Inf) and [Runner.classify] (NaN
   anywhere in the output dominates, saturated finite differences count
   as Inf). *)

(* ------------------------------------------------------------------ *)
(* Lane templates                                                      *)

type op = Mov | Add | Sub | Mul | Div | Neg | Abs | Sqrt

(* One per static float expression: its operations in evaluation order.
   Operand codes pack a kind in the low two bits — 0: the result of an
   earlier operation, 1: leaf k (a register or array read, numbered left
   to right), 2: constant k — and the index above them. The last
   operation produces the expression's value. *)
type tmpl = {
  ops : op array;
  lhs : int array;
  rhs : int array;
  consts : float array;
  n_leaves : int;
}

let compile_tmpl e =
  let ops = ref [] and lhs = ref [] and rhs = ref [] and consts = ref [] in
  let n_ops = ref 0 and n_leaves = ref 0 and n_consts = ref 0 in
  let emit op a b =
    ops := op :: !ops;
    lhs := a :: !lhs;
    rhs := b :: !rhs;
    incr n_ops;
    (!n_ops - 1) lsl 2
  in
  let rec go = function
    | Ir.Fconst v ->
        consts := v :: !consts;
        incr n_consts;
        ((!n_consts - 1) lsl 2) lor 2
    | Ir.Freg _ | Ir.Fload _ ->
        incr n_leaves;
        ((!n_leaves - 1) lsl 2) lor 1
    | Ir.Fadd (a, b) -> binary Add a b
    | Ir.Fsub (a, b) -> binary Sub a b
    | Ir.Fmul (a, b) -> binary Mul a b
    | Ir.Fdiv (a, b) -> binary Div a b
    | Ir.Fneg a -> emit Neg (go a) 0
    | Ir.Fabs a -> emit Abs (go a) 0
    | Ir.Fsqrt a -> emit Sqrt (go a) 0
  and binary op a b =
    let a = go a in
    let b = go b in
    emit op a b
  in
  let root = go e in
  if root land 3 <> 0 then ignore (emit Mov root 0);
  let arr l = Array.of_list (List.rev !l) in
  { ops = arr ops; lhs = arr lhs; rhs = arr rhs; consts = arr consts; n_leaves = !n_leaves }

(* Body pre-compiled once: every float expression carries the index of
   its template, shared by all of its dynamic executions. *)
type cstmt =
  | CReg of int * Ir.fexpr * int * bool  (* reg, expr, template, recorded *)
  | CStore of int * Ir.iexpr * Ir.fexpr * int
  | CIassign of int * Ir.iexpr
  | CFor of int * Ir.iexpr * Ir.iexpr * cstmt list
  | CIfF of [ `Lt | `Le | `Gt | `Ge ] * Ir.fexpr * Ir.fexpr * cstmt list * cstmt list
  | CIfI of [ `Lt | `Le | `Eq | `Ne ] * Ir.iexpr * Ir.iexpr * cstmt list * cstmt list
  | CGuard of Ir.fexpr * int

let compile_body body =
  let tmpls = ref [] and n = ref 0 in
  let tmpl e =
    tmpls := compile_tmpl e :: !tmpls;
    incr n;
    !n - 1
  in
  let rec stmt = function
    | Ir.Fassign (r, e, _) -> CReg ((r :> int), e, tmpl e, true)
    | Ir.Flet (r, e) -> CReg ((r :> int), e, tmpl e, false)
    | Ir.Store (a, i, e, _) -> CStore ((a :> int), i, e, tmpl e)
    | Ir.Iassign (r, e) -> CIassign ((r :> int), e)
    | Ir.For (r, lo, hi, b) -> CFor ((r :> int), lo, hi, List.map stmt b)
    | Ir.If (Ir.Fcmp (op, a, b), yes, no) -> CIfF (op, a, b, List.map stmt yes, List.map stmt no)
    | Ir.If (Ir.Icmp (op, a, b), yes, no) -> CIfI (op, a, b, List.map stmt yes, List.map stmt no)
    | Ir.Guard (e, _) -> CGuard (e, tmpl e)
  in
  let body = List.map stmt body in
  (body, Array.of_list (List.rev !tmpls))

(* ------------------------------------------------------------------ *)
(* Analysis walk                                                       *)

module Fbuf = Ctx.Fbuf
module Ibuf = Ctx.Ibuf

(* Events and guards in struct-of-arrays form. An instance (event or
   guard) names its template and where its leaves start in the shared
   [leaf_prod]/[leaf_val] arrays: per leaf, the producer event (-1 =
   initial data) and the golden value read. *)
type walk = {
  ev_tmpl : Ibuf.t;
  ev_leaf : Ibuf.t;
  ev_golden : Fbuf.t;
  g_tmpl : Ibuf.t;
  g_leaf : Ibuf.t;
  leaf_prod : Ibuf.t;
  leaf_val : Fbuf.t;
  branch_feeders : Ibuf.t;
  sites : Ibuf.t;
  fregs : float array;
  freg_prod : int array;
  iregs : int array;
  arrays : float array array;
  elem_prod : int array array;
}

let rec eval_i w = function
  | Ir.Iconst n -> n
  | Ir.Ireg r -> w.iregs.((r :> int))
  | Ir.Iadd (a, b) -> eval_i w a + eval_i w b
  | Ir.Isub (a, b) -> eval_i w a - eval_i w b
  | Ir.Imul (a, b) -> eval_i w a * eval_i w b

(* Evaluate an fexpr, pushing per leaf (left to right, matching
   [compile_tmpl]'s numbering) the producer event and golden value. *)
let rec eval_obs w = function
  | Ir.Fconst v -> v
  | Ir.Freg r ->
      let ri = (r :> int) in
      let v = w.fregs.(ri) in
      Ibuf.push w.leaf_prod w.freg_prod.(ri);
      Fbuf.push w.leaf_val v;
      v
  | Ir.Fload (a, ie) ->
      let ai = (a :> int) in
      let i = eval_i w ie in
      let v = w.arrays.(ai).(i) in
      Ibuf.push w.leaf_prod w.elem_prod.(ai).(i);
      Fbuf.push w.leaf_val v;
      v
  | Ir.Fadd (a, b) ->
      let x = eval_obs w a in
      let y = eval_obs w b in
      x +. y
  | Ir.Fsub (a, b) ->
      let x = eval_obs w a in
      let y = eval_obs w b in
      x -. y
  | Ir.Fmul (a, b) ->
      let x = eval_obs w a in
      let y = eval_obs w b in
      x *. y
  | Ir.Fdiv (a, b) ->
      let x = eval_obs w a in
      let y = eval_obs w b in
      x /. y
  | Ir.Fneg a -> -.eval_obs w a
  | Ir.Fabs a -> abs_float (eval_obs w a)
  | Ir.Fsqrt a -> sqrt (eval_obs w a)

let push_event w tmpl e =
  let id = Ibuf.length w.ev_tmpl in
  Ibuf.push w.ev_tmpl tmpl;
  Ibuf.push w.ev_leaf (Ibuf.length w.leaf_prod);
  let v = eval_obs w e in
  Fbuf.push w.ev_golden v;
  (id, v)

let rec exec_c w s =
  match s with
  | CReg (r, e, tmpl, recorded) ->
      let id, v = push_event w tmpl e in
      w.fregs.(r) <- v;
      w.freg_prod.(r) <- id;
      if recorded then Ibuf.push w.sites id
  | CStore (a, ie, e, tmpl) ->
      let i = eval_i w ie in
      let id, v = push_event w tmpl e in
      w.arrays.(a).(i) <- v;
      w.elem_prod.(a).(i) <- id;
      Ibuf.push w.sites id
  | CIassign (r, e) -> w.iregs.(r) <- eval_i w e
  | CFor (r, lo, hi, body) ->
      let lo = eval_i w lo and hi = eval_i w hi in
      for i = lo to hi - 1 do
        w.iregs.(r) <- i;
        List.iter (exec_c w) body
      done
  | CIfF (op, a, b, yes, no) ->
      (* The condition's leaves are observed only to mark their producers
         as branch feeders, then dropped. *)
      let mark = Ibuf.length w.leaf_prod in
      let x = eval_obs w a in
      let y = eval_obs w b in
      for k = mark to Ibuf.length w.leaf_prod - 1 do
        let p = Ibuf.get w.leaf_prod k in
        if p >= 0 then Ibuf.push w.branch_feeders p
      done;
      Ibuf.truncate w.leaf_prod mark;
      Fbuf.truncate w.leaf_val mark;
      let taken = match op with `Lt -> x < y | `Le -> x <= y | `Gt -> x > y | `Ge -> x >= y in
      List.iter (exec_c w) (if taken then yes else no)
  | CIfI (op, a, b, yes, no) ->
      let x = eval_i w a and y = eval_i w b in
      let taken = match op with `Lt -> x < y | `Le -> x <= y | `Eq -> x = y | `Ne -> x <> y in
      List.iter (exec_c w) (if taken then yes else no)
  | CGuard (e, tmpl) ->
      Ibuf.push w.g_tmpl tmpl;
      Ibuf.push w.g_leaf (Ibuf.length w.leaf_prod);
      ignore (eval_obs w e)

(* CSR adjacency from producers to the instances that read them:
   instance [i]'s leaves are [leaf_prod.(start.(i) ..)], [n_leaves i] of
   them. *)
let consumers_csr ~rows ~leaf_prod ~start ~n_leaves =
  let deg = Array.make (rows + 1) 0 in
  let each f =
    Array.iteri
      (fun i off ->
        for k = off to off + n_leaves i - 1 do
          let p = leaf_prod.(k) in
          if p >= 0 then f p i
        done)
      start
  in
  each (fun p _ -> deg.(p + 1) <- deg.(p + 1) + 1);
  for i = 1 to rows do
    deg.(i) <- deg.(i) + deg.(i - 1)
  done;
  let fill = Array.copy deg in
  let cols = Array.make deg.(rows) 0 in
  each (fun p c ->
      cols.(fill.(p)) <- c;
      fill.(p) <- fill.(p) + 1);
  (deg, cols)

(* ------------------------------------------------------------------ *)
(* Per-domain scratch                                                  *)

(* Reused from site to site (and plan to plan) on one domain, grown to the
   largest plan seen; the lane rows stay within [lane_budget] floats, or
   one float per row when a cone has more rows than that. A generation
   counter replaces clearing:
   an event is marked for the current traversal or run iff its stamp
   equals the current generation. *)
type scratch = {
  mutable busy : bool;
  mutable gen : int;
  mutable stamp : int array;  (* per event *)
  mutable slot : int array;  (* per event: lane row offset, valid when stamped *)
  mutable stack : int array;  (* depth-first: events on the path *)
  mutable cursor : int array;  (* depth-first: next consumer edge per stack entry *)
  mutable found : int array;  (* depth-first: events in finishing order *)
  mutable g_stamp : int array;  (* per guard *)
  mutable lanes : float array;  (* rows of [stride] floats *)
  mutable t_row : int array;  (* per template op: row offset, or -1 if scalar *)
  mutable t_val : float array;  (* per template op: the scalar result *)
  sc : float array;  (* the two scalar operands of the current op *)
  mutable crash : int array;  (* per lane: 0 none, 1 NaN, 2 Inf *)
  mutable err : float array;  (* per lane *)
  mutable nan_out : bool array;  (* per lane *)
}

let fresh_scratch () =
  {
    busy = false;
    gen = 0;
    stamp = [||];
    slot = [||];
    stack = [||];
    cursor = [||];
    found = [||];
    g_stamp = [||];
    lanes = [||];
    t_row = [||];
    t_val = [||];
    sc = Array.make 2 0.;
    crash = [||];
    err = [||];
    nan_out = [||];
  }

let scratch_key = Domain.DLS.new_key fresh_scratch

(* A second user on the same domain (another systhread) gets a private
   scratch rather than sharing the domain's. *)
let with_scratch f =
  let s = Domain.DLS.get scratch_key in
  if s.busy then f (fresh_scratch ())
  else begin
    s.busy <- true;
    Fun.protect ~finally:(fun () -> s.busy <- false) (fun () -> f s)
  end

let next_gen s =
  s.gen <- s.gen + 1;
  s.gen

let fit_events s n =
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n 0;
    s.slot <- Array.make n 0;
    s.stack <- Array.make n 0;
    s.cursor <- Array.make n 0;
    s.found <- Array.make n 0
  end

let fit_guards s n = if Array.length s.g_stamp < n then s.g_stamp <- Array.make n 0

let fit_lanes s ~rows ~ops ~width =
  if Array.length s.lanes < rows * width then s.lanes <- Array.create_float (rows * width);
  if Array.length s.t_row < ops then begin
    s.t_row <- Array.make ops 0;
    s.t_val <- Array.make ops 0.
  end;
  if Array.length s.crash < width then begin
    s.crash <- Array.make width 0;
    s.err <- Array.make width 0.;
    s.nan_out <- Array.make width false
  end

(* ------------------------------------------------------------------ *)
(* Lane evaluation                                                     *)

let get (lanes : float array) i = Array.unsafe_get lanes i
let set (lanes : float array) i v = Array.unsafe_set lanes i v

(* [d <- a op b] across [w] lanes, where a row operand is given by its
   offset in [s.lanes] and a scalar one by [-1] with its value in
   [s.sc]. *)
let apply s w op d a b =
  let lanes = s.lanes in
  let x = Array.unsafe_get s.sc 0 and y = Array.unsafe_get s.sc 1 in
  match op with
  | Mov -> if a >= 0 then Array.blit lanes a lanes d w else Array.fill lanes d w x
  | Neg ->
      if a >= 0 then for l = 0 to w - 1 do set lanes (d + l) (-.get lanes (a + l)) done
      else Array.fill lanes d w (-.x)
  | Abs ->
      if a >= 0 then for l = 0 to w - 1 do set lanes (d + l) (abs_float (get lanes (a + l))) done
      else Array.fill lanes d w (abs_float x)
  | Sqrt ->
      if a >= 0 then for l = 0 to w - 1 do set lanes (d + l) (sqrt (get lanes (a + l))) done
      else Array.fill lanes d w (sqrt x)
  | Add ->
      if a >= 0 && b >= 0 then
        for l = 0 to w - 1 do
          set lanes (d + l) (get lanes (a + l) +. get lanes (b + l))
        done
      else if a >= 0 then for l = 0 to w - 1 do set lanes (d + l) (get lanes (a + l) +. y) done
      else if b >= 0 then for l = 0 to w - 1 do set lanes (d + l) (x +. get lanes (b + l)) done
      else Array.fill lanes d w (x +. y)
  | Sub ->
      if a >= 0 && b >= 0 then
        for l = 0 to w - 1 do
          set lanes (d + l) (get lanes (a + l) -. get lanes (b + l))
        done
      else if a >= 0 then for l = 0 to w - 1 do set lanes (d + l) (get lanes (a + l) -. y) done
      else if b >= 0 then for l = 0 to w - 1 do set lanes (d + l) (x -. get lanes (b + l)) done
      else Array.fill lanes d w (x -. y)
  | Mul ->
      if a >= 0 && b >= 0 then
        for l = 0 to w - 1 do
          set lanes (d + l) (get lanes (a + l) *. get lanes (b + l))
        done
      else if a >= 0 then for l = 0 to w - 1 do set lanes (d + l) (get lanes (a + l) *. y) done
      else if b >= 0 then for l = 0 to w - 1 do set lanes (d + l) (x *. get lanes (b + l)) done
      else Array.fill lanes d w (x *. y)
  | Div ->
      if a >= 0 && b >= 0 then
        for l = 0 to w - 1 do
          set lanes (d + l) (get lanes (a + l) /. get lanes (b + l))
        done
      else if a >= 0 then for l = 0 to w - 1 do set lanes (d + l) (get lanes (a + l) /. y) done
      else if b >= 0 then for l = 0 to w - 1 do set lanes (d + l) (x /. get lanes (b + l)) done
      else Array.fill lanes d w (x /. y)

let scalar op x y =
  match op with
  | Mov -> x
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Neg -> -.x
  | Abs -> abs_float x
  | Sqrt -> sqrt x

(* The most lane-row floats a site may use per domain (4 MiB): a cone
   whose rows × width exceed it runs its lanes in chunks. *)
let lane_budget = 1 lsl 19

let plan (t : Ir.t) : Program.cone_plan =
  let body, tmpls = compile_body (Ir.body t) in
  let output = (Ir.output_id t :> int) in
  let tolerance = Ir.tolerance t in
  let arrays =
    Array.of_list (List.map (fun (_, init) -> Array.copy init) (Ir.arrays t))
  in
  let w =
    {
      ev_tmpl = Ibuf.create ();
      ev_leaf = Ibuf.create ();
      ev_golden = Fbuf.create ();
      g_tmpl = Ibuf.create ();
      g_leaf = Ibuf.create ();
      leaf_prod = Ibuf.create ();
      leaf_val = Fbuf.create ();
      branch_feeders = Ibuf.create ();
      sites = Ibuf.create ();
      fregs = Array.make (max 1 (Ir.n_fregs t)) 0.;
      freg_prod = Array.make (max 1 (Ir.n_fregs t)) (-1);
      iregs = Array.make (max 1 (Ir.n_iregs t)) 0;
      arrays;
      elem_prod = Array.map (fun a -> Array.make (Array.length a) (-1)) arrays;
    }
  in
  List.iter (exec_c w) body;
  let ev_tmpl = Ibuf.contents w.ev_tmpl and ev_leaf = Ibuf.contents w.ev_leaf in
  let golden = Fbuf.contents w.ev_golden in
  let g_tmpl = Ibuf.contents w.g_tmpl and g_leaf = Ibuf.contents w.g_leaf in
  let leaf_prod = Ibuf.contents w.leaf_prod and leaf_val = Fbuf.contents w.leaf_val in
  let n = Array.length ev_tmpl and n_guards = Array.length g_tmpl in
  let out_elem = Array.make n (-1) in
  Array.iteri (fun j p -> if p >= 0 then out_elem.(p) <- j) w.elem_prod.(output);
  let row_ptr, consumers =
    consumers_csr ~rows:n ~leaf_prod ~start:ev_leaf ~n_leaves:(fun e ->
        tmpls.(ev_tmpl.(e)).n_leaves)
  in
  let g_row_ptr, g_consumers =
    consumers_csr ~rows:n ~leaf_prod ~start:g_leaf ~n_leaves:(fun g ->
        tmpls.(g_tmpl.(g)).n_leaves)
  in
  let feeds_branch = Array.make n false in
  Array.iter (fun e -> feeds_branch.(e) <- true) (Ibuf.contents w.branch_feeders);
  let site_events = Ibuf.contents w.sites in
  let max_ops = Array.fold_left (fun m tp -> max m (Array.length tp.ops)) 1 tmpls in
  (* Row layout of [s.lanes]: one row per template op, then the guard
     value row, then one row per cone member, seed first. A row holds
     [stride] lanes. *)
  let guard_row = max_ops in
  let member_row = max_ops + 1 in
  (* Evaluate template [tp], for the instance whose leaves start at
     [off], across [width] lanes into the row at [dest]; a leaf whose
     producer is stamped [gen] reads that producer's row, any other leaf
     its golden value. *)
  let eval_into s ~gen ~stride ~width tp off dest =
    let last = Array.length tp.ops - 1 in
    let operand code which =
      let idx = code lsr 2 in
      match code land 3 with
      | 0 ->
          let r = s.t_row.(idx) in
          if r < 0 then s.sc.(which) <- s.t_val.(idx);
          r
      | 1 ->
          let p = leaf_prod.(off + idx) in
          if p >= 0 && s.stamp.(p) = gen then s.slot.(p)
          else begin
            s.sc.(which) <- leaf_val.(off + idx);
            -1
          end
      | _ ->
          s.sc.(which) <- tp.consts.(idx);
          -1
    in
    for o = 0 to last do
      let op = tp.ops.(o) in
      let a = operand tp.lhs.(o) 0 in
      let b = match op with Add | Sub | Mul | Div -> operand tp.rhs.(o) 1 | _ -> -1 in
      if a < 0 && b < 0 && o < last then begin
        (* Operations on golden values alone stay scalar. *)
        s.t_row.(o) <- -1;
        s.t_val.(o) <- scalar op s.sc.(0) s.sc.(1)
      end
      else begin
        let d = if o = last then dest else o * stride in
        s.t_row.(o) <- d;
        apply s width op d a b
      end
    done
  in
  (* A site's lanes run in chunks of [stride], as many as fit
     [lane_budget] (all of them unless the cone is huge); every chunk
     decodes each member once. *)
  let run ~seed ~members ~guards corrupts =
    let width = Array.length corrupts in
    let m = Array.length members in
    let rows = member_row + m in
    let stride = max 1 (min width (lane_budget / rows)) in
    let outcomes = Array.make width Program.Cone_masked in
    with_scratch (fun s ->
        fit_events s n;
        fit_lanes s ~rows ~ops:max_ops ~width:stride;
        let gen = next_gen s in
        Array.iteri
          (fun i e ->
            s.stamp.(e) <- gen;
            s.slot.(e) <- (member_row + i) * stride)
          members;
        let lanes = s.lanes in
        let g = golden.(seed) in
        let base = s.slot.(seed) in
        let lo = ref 0 in
        while !lo < width do
          let first = !lo in
          let width = min stride (width - first) in
          for l = 0 to width - 1 do
            lanes.(base + l) <- corrupts.(first + l) g
          done;
          for i = 1 to m - 1 do
            let e = members.(i) in
            eval_into s ~gen ~stride ~width tmpls.(ev_tmpl.(e)) ev_leaf.(e) s.slot.(e)
          done;
          (* Guards in execution order: each lane keeps its first
             non-finite value's reason. *)
          let crash = s.crash in
          Array.fill crash 0 width 0;
          let alive = ref width and k = ref 0 in
          let gbase = guard_row * stride in
          while !alive > 0 && !k < Array.length guards do
            let gi = guards.(!k) in
            eval_into s ~gen ~stride ~width tmpls.(g_tmpl.(gi)) g_leaf.(gi) gbase;
            for l = 0 to width - 1 do
              let v = lanes.(gbase + l) in
              if crash.(l) = 0 && not (Ftb_util.Bits.is_finite v) then begin
                crash.(l) <- (if Float.is_nan v then 1 else 2);
                decr alive
              end
            done;
            incr k
          done;
          let err = s.err and nan_out = s.nan_out in
          Array.fill err 0 width 0.;
          Array.fill nan_out 0 width false;
          Array.iter
            (fun e ->
              if out_elem.(e) >= 0 then begin
                let r = s.slot.(e) and g = golden.(e) in
                for l = 0 to width - 1 do
                  let v = lanes.(r + l) in
                  if Float.is_nan v then nan_out.(l) <- true;
                  let d = abs_float (v -. g) in
                  let d = if Float.is_nan d then infinity else d in
                  if d > err.(l) then err.(l) <- d
                done
              end)
            members;
          for l = 0 to width - 1 do
            outcomes.(first + l) <-
              (match crash.(l) with
              | 1 -> Program.Cone_crash Ctx.Nan_value
              | 2 -> Program.Cone_crash Ctx.Inf_value
              | _ ->
                  if err.(l) = infinity then
                    Program.Cone_crash (if nan_out.(l) then Ctx.Nan_value else Ctx.Inf_value)
                  else if err.(l) <= tolerance then Program.Cone_masked
                  else Program.Cone_sdc)
          done;
          lo := first + width
        done);
    outcomes
  in
  let cone_case ~site =
    if site < 0 || site >= Array.length site_events then None
    else begin
      let seed = site_events.(site) in
      with_scratch (fun s ->
          fit_events s n;
          fit_guards s n_guards;
          let gen = next_gen s in
          (* Depth-first from the seed; the reverse of the finishing order
             is a topological order of the cone (producers before
             consumers, the seed first), which is all lane evaluation
             needs — no sort. *)
          let stamp = s.stamp and stack = s.stack and cursor = s.cursor in
          let found = s.found in
          stamp.(seed) <- gen;
          stack.(0) <- seed;
          cursor.(0) <- row_ptr.(seed);
          let top = ref 1 and count = ref 0 and exact = not feeds_branch.(seed) in
          let exact = ref exact in
          while !exact && !top > 0 do
            let e = stack.(!top - 1) and k = cursor.(!top - 1) in
            if k < row_ptr.(e + 1) then begin
              cursor.(!top - 1) <- k + 1;
              let c = consumers.(k) in
              if stamp.(c) <> gen then begin
                stamp.(c) <- gen;
                if feeds_branch.(c) then exact := false
                else begin
                  stack.(!top) <- c;
                  cursor.(!top) <- row_ptr.(c);
                  incr top
                end
              end
            end
            else begin
              decr top;
              found.(!count) <- e;
              incr count
            end
          done;
          if not !exact then None
          else begin
            let m = !count in
            let members = Array.init m (fun i -> found.(m - 1 - i)) in
            let guards = ref [] in
            Array.iter
              (fun e ->
                for k = g_row_ptr.(e) to g_row_ptr.(e + 1) - 1 do
                  let gi = g_consumers.(k) in
                  if s.g_stamp.(gi) <> gen then begin
                    s.g_stamp.(gi) <- gen;
                    guards := gi :: !guards
                  end
                done)
              members;
            let guards = Array.of_list !guards in
            Array.sort Int.compare guards;
            Some (run ~seed ~members ~guards)
          end)
    end
  in
  { Program.cone_sites = Array.length site_events; cone_case }
