module Clock = Pmem_sim.Clock
module Device = Pmem_sim.Device
module CM = Pmem_sim.Cost_model
module Types = Kv_common.Types
module LT = Kv_common.Linear_table

let key i = Workload.Keyspace.key_of_index i
let dev () = Device.create CM.optane

(* A last-level get on a sorted run is one fence search in DRAM plus one
   device read of the unit the key can live in, searched in place; a miss
   never lies, and a unit failing its checksum fails stop. *)
let sorted_run n =
  let d = dev () and c = Clock.create () in
  (d, c, LT.build_sorted d c (List.init n (fun i -> (key i, i))))

let test_last_one_device_read () =
  let d, c, t = sorted_run 500 in
  let reads () = (Device.stats d).Pmem_sim.Stats.read_ops in
  for i = 0 to 599 do
    let before = reads () in
    let want = if i < 500 then LT.Found i else LT.Absent in
    if LT.get t c (key i) <> want then Alcotest.failf "key %d" i;
    (* a miss below the first fence reads nothing *)
    if reads () - before > 1 || (i < 500 && reads () = before) then
      Alcotest.failf "key %d took %d device reads" i (reads () - before)
  done

let test_last_missing_keys_never_lie () =
  List.iter
    (fun n ->
      let _, c, t = sorted_run n in
      for i = 0 to (2 * n) - 1 do
        let want = if i < n then LT.Found i else LT.Absent in
        if LT.get t c (key i) <> want then Alcotest.failf "key %d, n = %d" i n
      done)
    [ 15; 16; 17; 2_000 ]

let test_last_empty_and_single () =
  let _, c, empty = sorted_run 0 in
  Alcotest.(check int) "empty count" 0 (LT.count empty);
  Alcotest.(check bool) "empty get" true (LT.get empty c 1L = LT.Absent);
  let _, c, one = sorted_run 1 in
  Alcotest.(check bool) "single hit" true (LT.get one c (key 0) = LT.Found 0);
  Alcotest.(check bool) "single miss" true (LT.get one c (key 1) = LT.Absent)

let test_last_slot_corruption_fail_stop () =
  let n = 400 in
  let d, c, t = sorted_run n in
  let off, len = LT.media_range t in
  let corrupted () =
    List.length
      (List.filter
         (fun i -> LT.get t c (key i) = LT.Corrupted)
         (List.init n Fun.id))
  in
  (* bit rot the device cannot see: only the unit checksum catches it *)
  Device.flip_bit d ~off:(off + 3) ~bit:2;
  Alcotest.(check bool) "bit rot detected" false (LT.intact t c);
  Alcotest.(check int) "exactly the rotted unit fails stop"
    (CM.optane.CM.write_unit / Types.slot_bytes) (corrupted ());
  Device.inject_poison d ~off ~len;
  Alcotest.(check int) "poisoned run fails stop" n (corrupted ())

let () =
  Alcotest.run "last_level"
    [ ( "last-level run",
        [ Alcotest.test_case "one device read per get" `Quick
            test_last_one_device_read;
          Alcotest.test_case "missing keys never lie" `Quick
            test_last_missing_keys_never_lie;
          Alcotest.test_case "empty and single-key runs" `Quick
            test_last_empty_and_single;
          Alcotest.test_case "slot corruption fail-stops" `Quick
            test_last_slot_corruption_fail_stop ] ) ]
