module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Sample_run = Ftb_inject.Sample_run

type t = { injected : float array; propagated : float array }

let significant_rel = 1e-8

let is_significant ~golden_value e =
  e > significant_rel *. Float.max (abs_float golden_value) 1e-16

let zeros n = { injected = Array.make n 0.; propagated = Array.make n 0. }

let tally golden t (s : Sample_run.t) =
  let site = s.Sample_run.fault.Fault.site in
  if is_significant ~golden_value:(Golden.value golden site) s.Sample_run.injected_error
  then t.injected.(site) <- t.injected.(site) +. 1.;
  match s.Sample_run.propagation with
  | None -> ()
  | Some (start, deviations) ->
      Array.iteri
        (fun k d ->
          let j = start + k in
          (* k = 0 is the injection site itself, already counted. *)
          if k > 0 && is_significant ~golden_value:(Golden.value golden j) d then
            t.propagated.(j) <- t.propagated.(j) +. 1.)
        deviations

let collect golden samples =
  let t = zeros (Golden.sites golden) in
  Array.iter (tally golden t) samples;
  t

(* Counts only ever grow by whole units, so batches fold in any order to
   the same (exact) floats [collect] computes. *)
module Acc = struct
  type info = t
  type t = { golden : Golden.t; counts : info }

  let create golden = { golden; counts = zeros (Golden.sites golden) }
  let absorb acc samples = Array.iter (tally acc.golden acc.counts) samples
  let total acc i = acc.counts.injected.(i) +. acc.counts.propagated.(i)

  let snapshot acc =
    { injected = Array.copy acc.counts.injected; propagated = Array.copy acc.counts.propagated }
end

let total t = Array.map2 ( +. ) t.injected t.propagated
let potential_impact = total
