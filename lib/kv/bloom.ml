type t = {
  bits : Bytes.t;
  nbits : int;
  k : int;
  mutable count : int;
}

let create ~expected ~bits_per_key =
  let nbits = max 64 (expected * bits_per_key) in
  let k = max 1 (int_of_float (0.69 *. float_of_int bits_per_key +. 0.5)) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k; count = 0 }

let set_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  let v = Char.code (Bytes.get t.bits byte) lor (1 lsl bit) in
  Bytes.set t.bits byte (Char.chr v)

let get_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

(* Double hashing: bit_j = h1 + j*h2 (Kirsch & Mitzenmacher). *)
let probe t key j =
  let h1 = Hash.to_int (Hash.mix64 key) in
  let h2 = Hash.to_int (Hash.mix64 (Int64.add key 0x9e3779b97f4a7c15L)) in
  (* mask after the addition: the multiply may wrap negative *)
  ((h1 + (j * (h2 lor 1))) land max_int) mod t.nbits

let add_silent t key =
  for j = 0 to t.k - 1 do
    set_bit t (probe t key j)
  done;
  t.count <- t.count + 1

let mem_silent t key =
  let rec go j = j >= t.k || (get_bit t (probe t key j) && go (j + 1)) in
  go 0

let c_probes = Obs.Counters.counter "bloom.probes"
let c_negatives = Obs.Counters.counter "bloom.negatives"
let c_false_positives = Obs.Counters.counter "bloom.false_positives"

(* Per-level probe/negative counters, registered on first use.  Levels are
   small integers, so a memoized array of counter handles keeps the hot
   path free of string formatting. *)
let per_level_cache = Hashtbl.create 8

let level_counters level =
  match Hashtbl.find_opt per_level_cache level with
  | Some c -> c
  | None ->
    let c =
      ( Obs.Counters.counter (Printf.sprintf "bloom.probes.L%d" level),
        Obs.Counters.counter (Printf.sprintf "bloom.negatives.L%d" level) )
    in
    Hashtbl.add per_level_cache level c;
    c

let fp_level_cache = Hashtbl.create 8

let fp_level_counter level =
  match Hashtbl.find_opt fp_level_cache level with
  | Some c -> c
  | None ->
    let c =
      Obs.Counters.counter (Printf.sprintf "bloom.false_positives.L%d" level)
    in
    Hashtbl.add fp_level_cache level c;
    c

let false_positive ~level =
  Obs.Counters.incr c_false_positives;
  Obs.Counters.incr (fp_level_counter level)

let add t clock key =
  Pmem_sim.Clock.advance clock Pmem_sim.Cost_model.bloom_build_per_key_ns;
  add_silent t key

let mem ?level t clock key =
  Pmem_sim.Clock.advance clock Pmem_sim.Cost_model.bloom_check_ns;
  Obs.Counters.incr c_probes;
  let hit = mem_silent t key in
  if not hit then Obs.Counters.incr c_negatives;
  (match level with
  | Some l ->
    let probes, negatives = level_counters l in
    Obs.Counters.incr probes;
    if not hit then Obs.Counters.incr negatives
  | None -> ());
  hit

let footprint_bytes t = float_of_int (Bytes.length t.bits)
let nkeys t = t.count
