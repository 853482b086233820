(* A store wrapper that checks every answer against the benchmark's own
   oracle and, when spans are on, times every call into the store.  It
   only observes: the wrapped store sees exactly the calls it would see
   unwrapped, and the record-key check uses the uncharged
   [Vlog.key_at], so simulated time is unchanged. *)

module Store_intf = Kv_common.Store_intf
module Types = Kv_common.Types
module Vlog = Kv_common.Vlog

type t = {
  raw : Store_intf.store;
  keys : Keyset.t;  (* every key ever put through this wrapper *)
  mutable puts : int;
  mutable gets : int;
  mutable scans : int;
  mutable user_bytes : float;  (* logical log bytes of those puts *)
  mutable errors : int;
  mutable messages : string list;  (* the first few errors *)
}

let error t fmt =
  Printf.ksprintf
    (fun msg ->
      t.errors <- t.errors + 1;
      if t.errors <= 5 then t.messages <- msg :: t.messages)
    fmt

let holds t loc key =
  match Vlog.key_at (Store_intf.vlog t.raw) loc with
  | k -> Int64.equal k key
  | exception Invalid_argument _ -> false

let check_get t key (r : Store_intf.read_result) =
  let written = Keyset.mem t.keys key in
  match r.Store_intf.loc with
  | Some loc ->
    if not written then error t "get %Lx: answered a key never written" key
    else if not (holds t loc key) then
      error t "get %Lx: location %d holds another record" key loc
  | None ->
    if written then
      error t "get %Lx: written key answered %s" key
        (Store_intf.stage_name r.Store_intf.stage)

(* A scan must return, in ascending order, exactly the first
   min(limit, #keys >= start) written keys at or after [start]. *)
let check_scan t ~start ~limit entries =
  let cmp = Types.key_compare in
  let rec walk prev n = function
    | [] -> (prev, n)
    | (k, loc) :: rest ->
      if cmp k start < 0 then error t "scan %Lx: key %Lx before start" start k;
      (match prev with
       | Some p when cmp p k >= 0 ->
         error t "scan %Lx: %Lx after %Lx, not ascending" start k p
       | _ -> ());
      if not (Keyset.mem t.keys k) then
        error t "scan %Lx: returned key %Lx never written" start k
      else if not (holds t loc k) then
        error t "scan %Lx: location %d does not hold %Lx" start loc k;
      walk (Some k) (n + 1) rest
  in
  let last, n = walk None 0 entries in
  let want = min limit (Keyset.count_range t.keys ~lo:start ~hi:None) in
  if n <> want then error t "scan %Lx: %d entries, expected %d" start n want
  else
    match last with
    | Some hi when Keyset.count_range t.keys ~lo:start ~hi:(Some hi) <> n ->
      error t "scan %Lx: skipped written keys before %Lx" start hi
    | _ -> ()

let note_put t key spec =
  Keyset.add t.keys key;
  t.puts <- t.puts + 1;
  t.user_bytes <-
    t.user_bytes
    +. float_of_int (Vlog.entry_bytes ~vlen:(Store_intf.spec_vlen spec))

(* [op_per_call]: each store call starts a new operation in the span
   record (used where no generator call marks operations). *)
let wrap ?(op_per_call = false) raw =
  let t =
    { raw; keys = Keyset.create (); puts = 0; gets = 0; scans = 0;
      user_bytes = 0.0; errors = 0; messages = [] }
  in
  let timed name f =
    if op_per_call then Probe.new_op ();
    Probe.span name f
  in
  let module S = (val raw : Store_intf.STORE) in
  let store =
    (module struct
      include S

      let write clock key spec =
        note_put t key spec;
        timed "store.put" (fun () -> S.write clock key spec)

      let write_batch clock items =
        List.iter (fun (key, spec) -> note_put t key spec) items;
        timed "store.put" (fun () -> S.write_batch clock items)

      let read clock key =
        t.gets <- t.gets + 1;
        let r = timed "store.get" (fun () -> S.read clock key) in
        check_get t key r;
        r

      let scan clock ~start ~limit =
        t.scans <- t.scans + 1;
        let r = timed "store.scan" (fun () -> S.scan clock ~start ~limit) in
        check_scan t ~start ~limit r;
        r

      let delete _ _ = invalid_arg "Checked: benchmark workloads never delete"
    end : Store_intf.STORE)
  in
  (t, store)
