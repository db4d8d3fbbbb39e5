module Ctx = Ftb_trace.Ctx
module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Program = Ftb_trace.Program
module Runner = Ftb_trace.Runner

let bits = Ftb_util.Bits.bits_per_double

(* Prefix-snapshot bit batching. The 64 cases of one site share the exact
   same injection-free prefix: every dynamic instruction before the site
   produces its golden value regardless of which bit will be flipped. So
   instead of 64 full runs per site, run the prefix once under a counting
   context, snapshot the interpreter at the injection point, and replay
   only the suffix per bit. Programs without the [resumable] capability
   (hand-written closure kernels) transparently fall back to full
   re-execution — same bytes, just without the savings. *)

let fallback_site ?fuel golden ~site buf ~pos =
  for bit = 0 to bits - 1 do
    Bytes.set buf (pos + bit) (Ground_truth.case_byte ?fuel golden ((site * bits) + bit))
  done

let byte_of_cone = function
  | Program.Cone_masked -> '\000'
  | Program.Cone_sdc -> '\001'
  | Program.Cone_crash reason -> Ground_truth.crash_byte reason

(* Dependent-cone fast path. A program may carry a cone plan
   ([Program.cone], built by [Ftb_ir.Pipeline.to_program]): per site, the
   outcomes of all of the site's cases are computed in one lane-batched
   pass over the site's dependent cone, from the corrupted values and
   precomputed golden dataflow alone — no prefix run, no suffix replay.
   The capability is consulted only for unlimited-fuel campaigns (cone
   replay performs no step bookkeeping, so fuel semantics require real
   replay) and only when the plan covers exactly this golden run's site
   space. [cone_into] writes the site's bytes into [buf.[pos..]], or
   returns [false] and leaves the site to the prefix-snapshot path below:
   when the site's cone feeds a float branch, and when the plan raised —
   the snapshot path's own containment then gives each case its real
   outcome, where stamping [Exception_raised] on every case would not.
   Outcome bytes are bit-identical either way — enforced by the
   differential tests and the @ir-smoke gate. *)
let cone_into ?fuel ~cone golden ~site corrupts buf ~pos =
  let run =
    match (cone, fuel, golden.Golden.program.Program.cone) with
    | true, None, Some force -> (
        match force () with
        | Some plan when plan.Program.cone_sites = Golden.sites golden ->
            plan.Program.cone_case ~site
        | Some _ | None -> None)
    | _ -> None
  in
  match run with
  | None -> false
  | Some run -> (
      match run corrupts with
      | outcomes ->
          Array.iteri (fun i o -> Bytes.set buf (pos + i) (byte_of_cone o)) outcomes;
          true
      | exception Out_of_memory -> raise Out_of_memory
      | exception _ -> false)

let flips = Array.init bits (fun bit -> Ftb_util.Bits.flip ~bit)

let site_into ?fuel ?(cone = true) golden ~site buf ~pos =
  if site < 0 || site >= Golden.sites golden then
    invalid_arg "Executor.site_into: site out of range";
  if pos < 0 || pos + bits > Bytes.length buf then
    invalid_arg "Executor.site_into: buffer too small";
  if not (cone_into ?fuel ~cone golden ~site flips buf ~pos) then
  match golden.Golden.program.Program.resumable with
  | None -> fallback_site ?fuel golden ~site buf ~pos
  | Some resumable -> (
      let ctx = Ctx.counting ?fuel () in
      match resumable ctx ~stop_at:site with
      | exception Ctx.Crash { reason; _ } ->
          (* The injection-free prefix crashed (in practice only the fuel
             watchdog can do that — the golden run is clean), strictly
             before the injection point: all 64 cases follow the identical
             path to the identical crash. *)
          Bytes.fill buf pos bits (Ground_truth.crash_byte reason)
      | exception Out_of_memory -> raise Out_of_memory
      | exception _ ->
          (* Campaign containment, mirroring [Runner.run_outcome_contained]:
             a non-cooperative exception inside the body is a generic
             exception crash for every bit. *)
          Bytes.fill buf pos bits (Ground_truth.crash_byte Ctx.Exception_raised)
      | Program.Completed _ ->
          (* A deterministic program cannot finish before issuing
             [site < sites] dynamic instructions; if it somehow does, trust
             the per-case path over the snapshot machinery. *)
          fallback_site ?fuel golden ~site buf ~pos
      | Program.Paused resume ->
          let snap = Ctx.snapshot ctx in
          for bit = 0 to bits - 1 do
            let fault = Fault.make ~site ~bit in
            let ctx = Ctx.resume_outcome snap ~fault in
            let result = Runner.outcome_of_run_contained golden fault ctx resume in
            Bytes.set buf (pos + bit) (Ground_truth.byte_of_result result)
          done)

let range_into ?fuel ?cone golden ~lo ~hi buf ~off =
  if lo < 0 || hi < lo || hi > Golden.cases golden then
    invalid_arg "Executor.range_into: case range out of bounds";
  if off < 0 || off + (hi - lo) > Bytes.length buf then
    invalid_arg "Executor.range_into: buffer too small";
  let per_case case =
    Bytes.set buf (off + case - lo) (Ground_truth.case_byte ?fuel golden case)
  in
  (* Whole sites inside [lo, hi) are batched; ragged edges (shard bounds
     not aligned to 64) run per-case. *)
  let first_whole = (lo + bits - 1) / bits * bits in
  let last_whole = hi / bits * bits in
  if first_whole >= last_whole then
    for case = lo to hi - 1 do
      per_case case
    done
  else begin
    for case = lo to first_whole - 1 do
      per_case case
    done;
    for site = first_whole / bits to (last_whole / bits) - 1 do
      site_into ?fuel ?cone golden ~site buf ~pos:(off + (site * bits) - lo)
    done;
    for case = last_whole to hi - 1 do
      per_case case
    done
  end

(* Model-generalized batching. The prefix-snapshot argument never
   depended on the corruption being a bit flip — only on the prefix being
   injection-free — so any *discrete* model batches over an arbitrary
   width. Stochastic models take the closure (per-case) path: their dense
   case space exists for shard arithmetic, and each case re-derives its
   RNG from the dense index, so there is no shared suffix state to reuse.
   [Bit_flip_64] dispatches to the original paths above, byte- and
   cost-identical to every pre-model campaign. *)

let fallback_site_model ?fuel spec golden ~site ~width buf ~pos =
  for case = 0 to width - 1 do
    Bytes.set buf (pos + case)
      (Ground_truth.case_byte_model ?fuel spec golden ((site * width) + case))
  done

let site_into_model ?fuel ?(cone = true) (spec : Models.spec) golden ~site buf ~pos =
  match spec.Models.model with
  | Models.Bit_flip_64 -> site_into ?fuel ~cone golden ~site buf ~pos
  | model -> (
      let width = Models.spec_width spec in
      if site < 0 || site >= Golden.sites golden then
        invalid_arg "Executor.site_into_model: site out of range";
      if pos < 0 || pos + width > Bytes.length buf then
        invalid_arg "Executor.site_into_model: buffer too small";
      (* Any discrete model's corruption is a pure function of the golden
         value, so the cone fast path generalizes exactly as the
         prefix-snapshot path did. Stochastic models stay per-case. *)
      let by_cone =
        (not (Models.is_stochastic model))
        && cone_into ?fuel ~cone golden ~site
             (Array.init width (fun case ->
                  Models.case_corrupt spec ~case:((site * width) + case)))
             buf ~pos
      in
      if not by_cone then
      let batchable =
        if Models.is_stochastic model then None
        else golden.Golden.program.Program.resumable
      in
      match batchable with
      | None -> fallback_site_model ?fuel spec golden ~site ~width buf ~pos
      | Some resumable -> (
          let ctx = Ctx.counting ?fuel () in
          match resumable ctx ~stop_at:site with
          | exception Ctx.Crash { reason; _ } ->
              Bytes.fill buf pos width (Ground_truth.crash_byte reason)
          | exception Out_of_memory -> raise Out_of_memory
          | exception _ ->
              Bytes.fill buf pos width (Ground_truth.crash_byte Ctx.Exception_raised)
          | Program.Completed _ ->
              fallback_site_model ?fuel spec golden ~site ~width buf ~pos
          | Program.Paused resume ->
              let snap = Ctx.snapshot ctx in
              let fault = Fault.make ~site ~bit:0 in
              for case = 0 to width - 1 do
                let dense = (site * width) + case in
                let ctx =
                  Ctx.resume_custom snap ~site
                    ~corrupt:(Models.case_corrupt spec ~case:dense)
                in
                let result = Runner.outcome_of_run_contained golden fault ctx resume in
                Bytes.set buf (pos + case) (Ground_truth.byte_of_result result)
              done))

let range_into_model ?fuel ?cone (spec : Models.spec) golden ~lo ~hi buf ~off =
  match spec.Models.model with
  | Models.Bit_flip_64 -> range_into ?fuel ?cone golden ~lo ~hi buf ~off
  | _ ->
      let width = Models.spec_width spec in
      let total = Models.total_cases spec ~sites:(Golden.sites golden) in
      if lo < 0 || hi < lo || hi > total then
        invalid_arg "Executor.range_into_model: case range out of bounds";
      if off < 0 || off + (hi - lo) > Bytes.length buf then
        invalid_arg "Executor.range_into_model: buffer too small";
      let per_case case =
        Bytes.set buf (off + case - lo) (Ground_truth.case_byte_model ?fuel spec golden case)
      in
      let first_whole = (lo + width - 1) / width * width in
      let last_whole = hi / width * width in
      if first_whole >= last_whole then
        for case = lo to hi - 1 do
          per_case case
        done
      else begin
        for case = lo to first_whole - 1 do
          per_case case
        done;
        for site = first_whole / width to (last_whole / width) - 1 do
          site_into_model ?fuel ?cone spec golden ~site buf ~pos:(off + (site * width) - lo)
        done;
        for case = last_whole to hi - 1 do
          per_case case
        done
      end

let ground_truth ?pool ?domains ?fuel ?cone ?(batched = true) golden =
  let want =
    match domains with Some d -> d | None -> Parallel.default_domains ()
  in
  if want <= 0 then invalid_arg "Executor.ground_truth: domains must be positive";
  let total = Golden.cases golden in
  let outcomes = Bytes.create total in
  let serial () =
    if batched then range_into ?fuel ?cone golden ~lo:0 ~hi:total outcomes ~off:0
    else
      for case = 0 to total - 1 do
        Bytes.set outcomes case (Ground_truth.case_byte ?fuel golden case)
      done
  in
  (if want = 1 && pool = None then serial ()
   else begin
     let pool =
       match pool with
       | Some p -> p
       | None -> Parallel.Pool.global ~domains:want ()
     in
     let participants = min want (Parallel.Pool.domains pool) in
     if batched then
       (* Work items are sites (64 cases each), stolen individually: one
          unlucky site that diverges into fuel-bound suffixes does not
          stall a whole static chunk. *)
       Parallel.Pool.run pool ~participants ~chunk:1 ~total:(Golden.sites golden)
         (fun lo hi ->
           for site = lo to hi - 1 do
             site_into ?fuel ?cone golden ~site outcomes ~pos:(site * bits)
           done)
     else
       Parallel.Pool.run pool ~participants ~total (fun lo hi ->
           for case = lo to hi - 1 do
             Bytes.unsafe_set outcomes case (Ground_truth.case_byte ?fuel golden case)
           done)
   end);
  Ground_truth.of_outcomes golden outcomes

let ground_truth_model ?pool ?domains ?fuel ?cone ?(batched = true) (spec : Models.spec)
    golden =
  match spec.Models.model with
  | Models.Bit_flip_64 -> ground_truth ?pool ?domains ?fuel ?cone ~batched golden
  | _ ->
      let want =
        match domains with Some d -> d | None -> Parallel.default_domains ()
      in
      if want <= 0 then invalid_arg "Executor.ground_truth_model: domains must be positive";
      let width = Models.spec_width spec in
      let total = Models.total_cases spec ~sites:(Golden.sites golden) in
      let outcomes = Bytes.create total in
      let serial () =
        if batched then
          range_into_model ?fuel ?cone spec golden ~lo:0 ~hi:total outcomes ~off:0
        else
          for case = 0 to total - 1 do
            Bytes.set outcomes case (Ground_truth.case_byte_model ?fuel spec golden case)
          done
      in
      (if want = 1 && pool = None then serial ()
       else begin
         let pool =
           match pool with
           | Some p -> p
           | None -> Parallel.Pool.global ~domains:want ()
         in
         let participants = min want (Parallel.Pool.domains pool) in
         if batched then
           Parallel.Pool.run pool ~participants ~chunk:1 ~total:(Golden.sites golden)
             (fun lo hi ->
               for site = lo to hi - 1 do
                 site_into_model ?fuel ?cone spec golden ~site outcomes
                   ~pos:(site * width)
               done)
         else
           Parallel.Pool.run pool ~participants ~total (fun lo hi ->
               for case = lo to hi - 1 do
                 Bytes.unsafe_set outcomes case
                   (Ground_truth.case_byte_model ?fuel spec golden case)
               done)
       end);
      Ground_truth.of_outcomes ~width golden outcomes
