module Fault = Ftb_trace.Fault
module Runner = Ftb_trace.Runner
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run

type t = { thresholds : float array; support : int array }

let create ~sites =
  if sites <= 0 then invalid_arg "Boundary.create: sites must be positive";
  { thresholds = Array.make sites 0.; support = Array.make sites 0 }

let sites t = Array.length t.thresholds
let threshold t i = t.thresholds.(i)
let copy t = { thresholds = Array.copy t.thresholds; support = Array.copy t.support }

let add_masked_propagation ?min_sdc_error t ~start deviations =
  if start < 0 || start + Array.length deviations > sites t then
    invalid_arg "Boundary.add_masked_propagation: coverage out of range";
  Array.iteri
    (fun k d ->
      let j = start + k in
      let accepted =
        d > 0.
        && (match min_sdc_error with None -> true | Some floor -> d < floor.(j))
      in
      if accepted then begin
        if d > t.thresholds.(j) then t.thresholds.(j) <- d;
        t.support.(j) <- t.support.(j) + 1
      end)
    deviations

let min_sdc_errors ~sites samples =
  let floor = Array.make sites infinity in
  Array.iter
    (fun (s : Sample_run.t) ->
      match s.Sample_run.outcome with
      | Runner.Sdc ->
          let site = s.Sample_run.fault.Fault.site in
          if s.Sample_run.injected_error < floor.(site) then
            floor.(site) <- s.Sample_run.injected_error
      | Runner.Masked | Runner.Crash -> ())
    samples;
  floor

let infer ?(filter = false) ~sites:n samples =
  let t = create ~sites:n in
  let min_sdc_error = if filter then Some (min_sdc_errors ~sites:n samples) else None in
  Array.iter
    (fun (s : Sample_run.t) ->
      match s.Sample_run.propagation with
      | Some (start, deviations) -> add_masked_propagation ?min_sdc_error t ~start deviations
      | None -> ())
    samples;
  t

(* Algorithm 1 over a growing sample set. Without the filter every
   accepted deviation stays accepted, so a batch folds straight into the
   live boundary. With it, a site's floor (its smallest SDC injected error)
   can only fall, so a deviation at or above the floor is rejected for
   good, and one below it stays in the site's contribution buffer until a
   later floor drop rejects it. Only sites whose floor dropped are
   recomputed, from their buffers; [support] equals the buffer length. *)
module Acc = struct
  type boundary = t

  type t = {
    filter : bool;
    live : boundary;
    floor : float array;
    contributions : float array array;
  }

  let create ?(filter = false) ~sites () =
    let live = create ~sites in
    {
      filter;
      live;
      floor = (if filter then Array.make sites infinity else [||]);
      contributions = (if filter then Array.make sites [||] else [||]);
    }

  let threshold acc i = acc.live.thresholds.(i)
  let snapshot acc = copy acc.live

  let push acc j d =
    let buf = acc.contributions.(j) and len = acc.live.support.(j) in
    let buf =
      if len < Array.length buf then buf
      else begin
        let grown = Array.make (max 4 (2 * len)) 0. in
        Array.blit buf 0 grown 0 len;
        acc.contributions.(j) <- grown;
        grown
      end
    in
    buf.(len) <- d;
    acc.live.support.(j) <- len + 1;
    if d > acc.live.thresholds.(j) then acc.live.thresholds.(j) <- d

  (* Drop the contributions the lowered floor rejects; the survivors
     rebuild the site's threshold and support. *)
  let recompute acc j =
    let buf = acc.contributions.(j) and floor = acc.floor.(j) in
    let kept = ref 0 and best = ref 0. in
    for i = 0 to acc.live.support.(j) - 1 do
      let d = buf.(i) in
      if d < floor then begin
        buf.(!kept) <- d;
        incr kept;
        if d > !best then best := d
      end
    done;
    acc.live.thresholds.(j) <- !best;
    acc.live.support.(j) <- !kept

  let absorb acc samples =
    if not acc.filter then
      Array.iter
        (fun (s : Sample_run.t) ->
          match s.Sample_run.propagation with
          | Some (start, deviations) -> add_masked_propagation acc.live ~start deviations
          | None -> ())
        samples
    else begin
      (* Floors first, so the batch's own deviations meet its SDCs. *)
      Array.iter
        (fun (s : Sample_run.t) ->
          match s.Sample_run.outcome with
          | Runner.Sdc ->
              let site = s.Sample_run.fault.Fault.site in
              let e = s.Sample_run.injected_error in
              if e < acc.floor.(site) then begin
                acc.floor.(site) <- e;
                recompute acc site
              end
          | Runner.Masked | Runner.Crash -> ())
        samples;
      Array.iter
        (fun (s : Sample_run.t) ->
          match s.Sample_run.propagation with
          | None -> ()
          | Some (start, deviations) ->
              if start < 0 || start + Array.length deviations > sites acc.live then
                invalid_arg "Boundary.Acc.absorb: coverage out of range";
              Array.iteri
                (fun k d -> if d > 0. && d < acc.floor.(start + k) then push acc (start + k) d)
                deviations)
        samples
    end
end

let exhaustive gt =
  let golden = gt.Ground_truth.golden in
  let n = Ftb_trace.Golden.sites golden in
  (* Per-site case width of the campaign behind [gt] (64 for the paper's
     bit-flip model); deriving it keeps the brute-force boundary correct
     for narrower discrete fault models. *)
  let width = Ground_truth.cases gt / n in
  let t = create ~sites:n in
  for site = 0 to n - 1 do
    let min_sdc = ref infinity in
    for bit = 0 to width - 1 do
      let fault = Fault.make ~site ~bit in
      if Ground_truth.outcome gt ((site * width) + bit) = Runner.Sdc then begin
        let e = Ground_truth.injected_error golden fault in
        if e < !min_sdc then min_sdc := e
      end
    done;
    let best = ref 0. and support = ref 0 in
    for bit = 0 to width - 1 do
      let fault = Fault.make ~site ~bit in
      if Ground_truth.outcome gt ((site * width) + bit) = Runner.Masked then begin
        let e = Ground_truth.injected_error golden fault in
        if e < !min_sdc then begin
          incr support;
          if e > !best then best := e
        end
      end
    done;
    t.thresholds.(site) <- !best;
    t.support.(site) <- !support
  done;
  t
