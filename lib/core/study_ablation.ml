module Golden = Ftb_trace.Golden
module Stats = Ftb_util.Stats

type variant = {
  label : string;
  bias : bool;
  filter : bool;
  sample_fraction_mean : float;
  sample_fraction_std : float;
  predicted_sdc_mean : float;
  abs_error_mean : float;
  rounds_mean : float;
}

type round_point = {
  round_fraction : float;
  sample_fraction_mean : float;
  abs_error_mean : float;
  rounds_mean : float;
}

type result = {
  name : string;
  golden_sdc : float;
  variants : variant array;
  round_points : round_point array;
  baseline : Confidence.comparison;
}

(* Run the adaptive sampler [trials] times under one configuration and
   aggregate cost and accuracy. *)
let measure ~trials ~rng ~golden ~golden_sdc config =
  let fractions = Array.make trials 0. in
  let predictions = Array.make trials 0. in
  let rounds = Array.make trials 0. in
  for t = 0 to trials - 1 do
    let outcome = Adaptive.run ~config (Ftb_util.Rng.split rng) golden in
    let observations = Predict.observations_of_samples outcome.Adaptive.samples in
    fractions.(t) <- outcome.Adaptive.sample_fraction;
    predictions.(t) <-
      Predict.overall_sdc_ratio ~policy:Predict.Observed_all ~observations
        outcome.Adaptive.boundary golden;
    rounds.(t) <- float_of_int outcome.Adaptive.rounds
  done;
  let abs_errors = Array.map (fun p -> abs_float (p -. golden_sdc)) predictions in
  (fractions, predictions, rounds, abs_errors)

let run ?(trials = 5) ?(round_fractions = [| 0.0005; 0.001; 0.005 |]) ~seed
    (context : Context.t) =
  if trials <= 0 then invalid_arg "Study_ablation.run: trials must be positive";
  let rng = Ftb_util.Rng.create ~seed in
  let golden = context.Context.golden in
  let golden_sdc = Context.golden_sdc_ratio context in
  (* Bias x filter grid at the default round size. *)
  let variants =
    [| (true, true); (true, false); (false, true); (false, false) |]
    |> Array.map (fun (bias, filter) ->
           let config = { Adaptive.default_config with Adaptive.bias; filter } in
           let fractions, predictions, rounds, abs_errors =
             measure ~trials ~rng ~golden ~golden_sdc config
           in
           {
             label =
               Printf.sprintf "bias %s / filter %s"
                 (if bias then "on" else "off")
                 (if filter then "on" else "off");
             bias;
             filter;
             sample_fraction_mean = Stats.mean fractions;
             sample_fraction_std = Stats.std fractions;
             predicted_sdc_mean = Stats.mean predictions;
             abs_error_mean = Stats.mean abs_errors;
             rounds_mean = Stats.mean rounds;
           })
  in
  (* Round-size sweep at the default bias/filter setting. *)
  let round_points =
    Array.map
      (fun round_fraction ->
        let config = { Adaptive.default_config with Adaptive.round_fraction } in
        let fractions, _, rounds, abs_errors =
          measure ~trials ~rng ~golden ~golden_sdc config
        in
        {
          round_fraction;
          sample_fraction_mean = Stats.mean fractions;
          abs_error_mean = Stats.mean abs_errors;
          rounds_mean = Stats.mean rounds;
        })
      round_fractions
  in
  (* Statistical baseline: one more default run to get a concrete sample
     count and its recall against ground truth. *)
  let outcome = Adaptive.run (Ftb_util.Rng.split rng) golden in
  let evaluation =
    Metrics.evaluate outcome.Adaptive.boundary context.Context.ground_truth
  in
  let baseline =
    Confidence.compare_costs ~margin:0.01 ~z:Confidence.z_95
      ~sites:(Golden.sites golden)
      ~boundary_samples:(Array.length outcome.Adaptive.samples)
      ~boundary_recall:evaluation.Metrics.recall
  in
  { name = context.Context.name; golden_sdc; variants; round_points; baseline }
