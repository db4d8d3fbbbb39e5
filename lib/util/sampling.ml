let uniform rng ~n ~k = Rng.sample_without_replacement rng ~n ~k

let weighted_without_replacement rng ~weights ~k =
  let n = Array.length weights in
  if k < 0 then invalid_arg "Sampling.weighted_without_replacement: negative k";
  if k > n then invalid_arg "Sampling.weighted_without_replacement: k > n";
  let positive = ref 0 in
  Array.iter
    (fun w ->
      if Float.is_nan w || w < 0. then
        invalid_arg "Sampling.weighted_without_replacement: invalid weight";
      if w > 0. then incr positive)
    weights;
  if !positive < k then
    invalid_arg "Sampling.weighted_without_replacement: not enough positive weights";
  (* Efraimidis-Spirakis: the k items with the smallest -ln(u)/w keys form a
     weighted sample without replacement. Every positive weight draws its
     key, in index order, whether or not it can win, so the RNG stream
     depends on the weights alone; zero weights draw nothing and are never
     candidates. A bounded max-heap keeps the k smallest (key, index)
     pairs, so ties go to the lower index. *)
  let keys = Array.make n infinity in
  let heap = Array.make k 0 in
  let size = ref 0 in
  let above a b = keys.(a) > keys.(b) || (keys.(a) = keys.(b) && a > b) in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let rec sift_up i =
    let parent = (i - 1) / 2 in
    if i > 0 && above heap.(i) heap.(parent) then begin
      swap i parent;
      sift_up parent
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let largest = if l < !size && above heap.(l) heap.(i) then l else i in
    let largest = if r < !size && above heap.(r) heap.(largest) then r else largest in
    if largest <> i then begin
      swap i largest;
      sift_down largest
    end
  in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if w > 0. then begin
      let u = 1. -. Rng.float rng 1. (* in (0,1] so ln is finite *) in
      keys.(i) <- -.log u /. w;
      if !size < k then begin
        heap.(!size) <- i;
        incr size;
        sift_up (!size - 1)
      end
      (* i exceeds every index in the heap, so only a strictly smaller key
         beats the current maximum. *)
      else if k > 0 && keys.(i) < keys.(heap.(0)) then begin
        heap.(0) <- i;
        sift_down 0
      end
    end
  done;
  (* Pop the maximum into the last free slot: ascending (key, index). *)
  let drawn = Array.make k 0 in
  for j = k - 1 downto 0 do
    drawn.(j) <- heap.(0);
    decr size;
    heap.(0) <- heap.(!size);
    sift_down 0
  done;
  drawn

let inverse_information_weights ~info =
  Array.map
    (fun s ->
      if Float.is_nan s || s < 0. then
        invalid_arg "Sampling.inverse_information_weights: invalid info count";
      1. /. Float.max s 1.)
    info

let stratified_indices ~n ~strata =
  if n < 0 then invalid_arg "Sampling.stratified_indices: negative n";
  if strata <= 0 then invalid_arg "Sampling.stratified_indices: strata must be positive";
  let strata = min strata (max n 1) in
  Array.init strata (fun s ->
      let start = s * n / strata in
      let stop = (s + 1) * n / strata in
      (start, stop))
