(* Bechamel micro-benchmarks: host wall-clock ns of the hot operation each
   experiment stresses.  The experiments themselves run from `ckv bench`.

     dune exec bench/main.exe *)

let () = Bechamel_suite.run ()
