module Adaptive = Ftb_core.Adaptive
module Models = Ftb_inject.Models
module Persist = Ftb_inject.Persist
module Sample_codec = Ftb_inject.Sample_codec
module Sample_run = Ftb_inject.Sample_run
module Fingerprint = Ftb_util.Fingerprint

type t = {
  name : string;
  sites : int;
  spec : Models.spec;
  fuel : int option;
  fingerprint : string;
  config : Adaptive.config;
  seed : int;
  rng_state : int64;
  rounds : int;
  samples : Sample_run.t array;
  pending : int array option;
  stop : Adaptive.stop_reason option;
}

(* Layout: the magic line, then records. A record is

     length    u32 LE    payload bytes
     ~length   u32 LE    bitwise complement (a damaged length is caught
                         before it is trusted)
     crc32     u32 LE    of the payload
     payload             tag byte, then the body

   Tags: 'H' header (campaign identity, text), 'B' base (rounds and RNG
   state as i64 LE, then the Sample_codec blob of every sample folded
   before this log was written), 'D' draw (RNG state after the draw,
   then each drawn case as i64 LE), 'F' fold (the round's Sample_codec
   blob), 'S' stop (the stop reason, text). A log is H B, then draws and
   folds alternating, then optionally S. *)
let magic = "ftb-adaptive-v2\n"

(* What the previous format's files start with (an enveloped text
   checkpoint). They are another campaign as far as resuming goes. *)
let legacy_magic = "ftb-envelope-v1 "

let frame_overhead = 12

type kind = Header | Base | Draw | Fold | Stop

let kind_of_tag = function
  | 'H' -> Some Header
  | 'B' -> Some Base
  | 'D' -> Some Draw
  | 'F' -> Some Fold
  | 'S' -> Some Stop
  | _ -> None

let fail path fmt =
  Printf.ksprintf (fun msg -> raise (Persist.Format_error (path ^ ": " ^ msg))) fmt

let check_name name =
  if
    name = ""
    || String.exists (function ' ' | '\n' | '\r' | '\t' -> true | _ -> false) name
  then invalid_arg "Round_checkpoint: program name must be a non-empty space-free token"

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let u32_mask = 0xFFFF_FFFF

let frame tag body_len fill =
  let n = 1 + body_len in
  let b = Bytes.create (frame_overhead + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int32_le b 4 (Int32.of_int (lnot n land u32_mask));
  Bytes.set b frame_overhead tag;
  fill b (frame_overhead + 1);
  let crc = Persist.crc32 (Bytes.sub_string b frame_overhead n) in
  Bytes.set_int32_le b 8 (Int32.of_int crc);
  b

let string_record tag s =
  frame tag (String.length s) (fun b off -> Bytes.blit_string s 0 b off (String.length s))

let fuel_token = function None -> "none" | Some n -> string_of_int n

let header_record t =
  string_record 'H'
    (Printf.sprintf "%s %d %s %s %s %h %h %d %d %d %d" t.name t.sites
       (Models.spec_to_string t.spec)
       (fuel_token t.fuel) t.fingerprint t.config.Adaptive.round_fraction
       t.config.Adaptive.stop_sdc_fraction t.config.Adaptive.max_rounds
       (if t.config.Adaptive.filter then 1 else 0)
       (if t.config.Adaptive.bias then 1 else 0)
       t.seed)

let base_record ~rounds ~rng_state samples =
  let blob = Sample_codec.encode samples in
  frame 'B' (16 + String.length blob) (fun b off ->
      Bytes.set_int64_le b off (Int64.of_int rounds);
      Bytes.set_int64_le b (off + 8) rng_state;
      Bytes.blit_string blob 0 b (off + 16) (String.length blob))

let draw_record ~rng_state cases =
  frame 'D' (8 + (8 * Array.length cases)) (fun b off ->
      Bytes.set_int64_le b off rng_state;
      Array.iteri (fun i case -> Bytes.set_int64_le b (off + 8 + (8 * i)) (Int64.of_int case)) cases)

let fold_record samples = string_record 'F' (Sample_codec.encode samples)
let stop_record reason = string_record 'S' (Adaptive.stop_reason_to_string reason)

let compacted t =
  check_name t.name;
  if t.stop <> None && t.pending <> None then
    invalid_arg "Round_checkpoint: a finished campaign cannot have a pending round";
  let parts =
    [ Bytes.of_string magic; header_record t;
      base_record ~rounds:t.rounds ~rng_state:t.rng_state t.samples ]
    @ (match t.pending with
      | Some cases -> [ draw_record ~rng_state:t.rng_state cases ]
      | None -> [])
    @ match t.stop with Some reason -> [ stop_record reason ] | None -> []
  in
  Bytes.concat Bytes.empty parts

let save ~path t =
  let bytes = compacted t in
  Persist.with_out_atomic path (fun oc -> output_bytes oc bytes)

(* ------------------------------------------------------------------ *)
(* Framing on read                                                     *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let u32 s off = Int32.to_int (String.get_int32_le s off) land u32_mask

(* Split [s] after the magic into intact record payloads, each with the
   offset its record ends at. A kill during an append leaves a prefix of
   the final record: a frame header cut short, a length reaching past the
   end of the file, or a checksum failing on a record that ends exactly
   at the end of the file. Such a tail is dropped ([torn = true]). A
   damaged length field, or a checksum failing on a record that has
   more bytes after it, is corruption. *)
let split path s =
  let len = String.length s in
  let rec go off acc =
    if off = len then (List.rev acc, false)
    else if len - off < frame_overhead then (List.rev acc, true)
    else
      let n = u32 s off in
      if lnot n land u32_mask <> u32 s (off + 4) || n = 0 then
        fail path "record at byte %d has a damaged length" off
      else if off + frame_overhead + n > len then (List.rev acc, true)
      else
        let payload = String.sub s (off + frame_overhead) n in
        let stop = off + frame_overhead + n in
        if Persist.crc32 payload <> u32 s (off + 8) then
          if stop = len then (List.rev acc, true)
          else fail path "record at byte %d fails its checksum" off
        else go stop ((payload, stop) :: acc)
  in
  go (String.length magic) []

let has_prefix s p = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* [None] for a legacy file; [Some (records, torn)] otherwise. *)
let records_of path =
  let s = read_file path in
  if has_prefix s magic then Some (split path s)
  else if has_prefix s legacy_magic then None
  else fail path "not an adaptive round log"

let scan ~path =
  match records_of path with
  | None -> []
  | Some (records, _) ->
      List.map
        (fun (payload, stop) ->
          match kind_of_tag payload.[0] with
          | Some kind -> (kind, stop)
          | None -> fail path "unknown record tag %C" payload.[0])
        records

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

let int_field path what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail path "bad %s field %S" what s

let float_field path what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail path "bad %s field %S" what s

let bool_field path what s =
  match s with
  | "0" -> false
  | "1" -> true
  | _ -> fail path "bad %s flag %S" what s

let parse_header path body =
  match String.split_on_char ' ' body with
  | [ name; sites; model; fuel; fp; rf; stop_frac; max_rounds; filter; bias; seed ] ->
      let spec =
        match Models.spec_of_string model with
        | Ok spec -> spec
        | Error msg -> fail path "%s" msg
      in
      let fuel =
        if fuel = "none" then None
        else
          let n = int_field path "fuel" fuel in
          if n <= 0 then fail path "fuel must be positive" else Some n
      in
      let sites = int_field path "sites" sites in
      if sites <= 0 then fail path "sites must be positive";
      if not (Fingerprint.is_hex fp) then fail path "bad golden fingerprint %S" fp;
      let config =
        {
          Adaptive.round_fraction = float_field path "round_fraction" rf;
          stop_sdc_fraction = float_field path "stop_sdc_fraction" stop_frac;
          max_rounds = int_field path "max_rounds" max_rounds;
          filter = bool_field path "filter" filter;
          bias = bool_field path "bias" bias;
        }
      in
      (match Adaptive.check_config config with
      | () -> ()
      | exception Invalid_argument msg -> fail path "%s" msg);
      {
        name;
        sites;
        spec;
        fuel;
        fingerprint = fp;
        config;
        seed = int_field path "seed" seed;
        rng_state = 0L;
        rounds = 0;
        samples = [||];
        pending = None;
        stop = None;
      }
  | _ -> fail path "malformed header record"

let decode_samples path blob =
  match Sample_codec.decode blob with
  | samples -> samples
  | exception Sample_codec.Format_error msg -> fail path "samples: %s" msg

let replay path records =
  let body payload = String.sub payload 1 (String.length payload - 1) in
  let t, rest =
    match records with
    | (h, _) :: (b, _) :: rest when h.[0] = 'H' && b.[0] = 'B' ->
        let t = parse_header path (body h) in
        if String.length b < 17 then fail path "short base record";
        let rounds = Int64.to_int (String.get_int64_le b 1) in
        if rounds < 0 then fail path "negative round count";
        let samples = decode_samples path (String.sub b 17 (String.length b - 17)) in
        ({ t with rounds; rng_state = String.get_int64_le b 9; samples }, rest)
    | _ -> fail path "log does not start with a header and a base record"
  in
  let width = Models.spec_width t.spec in
  let total = Models.total_cases t.spec ~sites:t.sites in
  let case_of (s : Sample_run.t) =
    let fault = s.Sample_run.fault in
    if fault.Ftb_trace.Fault.site >= t.sites || fault.Ftb_trace.Fault.bit >= width then
      fail path "sample outside the model's %d-case space" total;
    (fault.Ftb_trace.Fault.site * width) + fault.Ftb_trace.Fault.bit
  in
  Array.iter (fun s -> ignore (case_of s : int)) t.samples;
  (* Folded rounds accumulate as blocks, concatenated once at the end. *)
  let blocks = ref [ t.samples ] in
  let last_fold = ref None in
  let t =
    List.fold_left
      (fun t (payload, _) ->
        if t.stop <> None then fail path "record after the stop record";
        match payload.[0] with
        | 'D' ->
            if t.pending <> None then fail path "two draws without a fold";
            let n = String.length payload - 1 in
            if n < 16 || n mod 8 <> 0 then fail path "malformed draw record";
            let cases =
              Array.init ((n - 8) / 8) (fun i ->
                  Int64.to_int (String.get_int64_le payload (9 + (8 * i))))
            in
            Array.iter
              (fun case ->
                if case < 0 || case >= total then
                  fail path "pending case %d outside the model's %d-case space" case total)
              cases;
            last_fold := None;
            { t with rng_state = String.get_int64_le payload 1; pending = Some cases }
        | 'F' -> (
            match t.pending with
            | None -> fail path "fold record without a draw"
            | Some cases ->
                let samples = decode_samples path (body payload) in
                if Array.length samples <> Array.length cases then
                  fail path "fold of %d samples for a %d-case draw" (Array.length samples)
                    (Array.length cases);
                Array.iteri
                  (fun i s ->
                    if case_of s <> cases.(i) then
                      fail path "folded samples do not match the drawn cases")
                  samples;
                blocks := samples :: !blocks;
                last_fold := Some samples;
                { t with rounds = t.rounds + 1; pending = None })
        | 'S' -> (
            if t.pending <> None then fail path "finished log still has a pending round";
            match Adaptive.stop_reason_of_string (body payload) with
            | Some reason -> { t with stop = Some reason }
            | None -> fail path "bad stop reason %S" (body payload))
        | c -> fail path "unexpected record tag %C" c)
      t rest
  in
  (* The fold record is written before the round's verdict is known, so a
     kill can separate the campaign's last fold from its stop record.
     The verdict is a function of that fold: recover it. *)
  let stop =
    match (t.stop, !last_fold) with
    | None, Some samples ->
        let masked, sdc, _ = Sample_run.count_outcomes samples in
        Adaptive.round_verdict t.config ~rounds:t.rounds ~drawn:(Array.length samples) ~masked
          ~sdc
    | stop, _ -> stop
  in
  { t with samples = Array.concat (List.rev !blocks); stop }

let resume ~path =
  match records_of path with
  | None -> None
  | Some (records, torn) -> Some (replay path records, torn)

let load ~path =
  match resume ~path with
  | Some (t, _) -> t
  | None -> fail path "legacy ftb-adaptive-v1 checkpoint"

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)

type log = Unix.file_descr

let append fd bytes =
  let n = Bytes.length bytes in
  if Unix.write fd bytes 0 n <> n then failwith "Round_checkpoint: short append"

let reopen ~path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

let start ~path t =
  save ~path t;
  reopen ~path

let append_draw log ~rng_state cases = append log (draw_record ~rng_state cases)
let append_fold log samples = append log (fold_record samples)
let append_stop log reason = append log (stop_record reason)
let close = Unix.close
