(** Dependent-cone replay: the site-suffix specializer.

    One uninstrumented analysis run over the structured IR records the
    complete dataflow graph of the golden execution: per float-producing
    step (recorded [Fassign]/[Store], scratch [Flet]) the producers and
    golden values of its operands and the golden value it produced. An
    injection at site [k] can then be classified by recomputing only the
    forward slice (dependent cone) of [k]'s event against precomputed
    golden operands — no prefix run, no suffix replay, no output copy.

    All of a site's cases run together, one lane per case: each cone
    member's template (compiled once per static statement) is decoded
    once per site and applied across the lanes, so a site costs
    O(|cone| × width). Working storage is per domain and reused from site
    to site; its lane rows hold at most 2{^19} floats (4 MiB; a larger
    cone runs its lanes in chunks), or one float per row when the cone
    alone has more rows than that.

    Exactness relies on the corrupted run following the golden control
    path: integer state is untaintable (fexpr/iexpr are disjoint), so a
    plan only declines ([cone_case ~site] = [None]) when the cone feeds a
    float [Fcmp] branch, or for out-of-range sites. Cones of any size are
    accepted. Tainted guards are re-evaluated in execution order and
    reproduce each lane's crash reason exactly. Outcomes are
    bit-identical to full replay by construction; the differential tests
    in [test/test_cone.ml] enforce this per fault model. *)

val plan : Ir.t -> Ftb_trace.Program.cone_plan
(** Run the analysis (one golden-equivalent execution of the body) and
    build the plan. Raises (like the interpreter would) on invalid
    programs; callers that attach the capability wrap the call and treat
    failure as "no plan" ({!Pipeline.to_program} does). *)
