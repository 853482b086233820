(* Test fixture: run [Service.Endpoint.serve] on its own thread and
   return only once the socket is listening.  [serve] creates the socket
   file at [bind], before [listen], so polling for the file lets a client
   connect too early and be refused; its [on_ready] callback fires after
   [listen]. *)

let start ~max_requests ~path backend =
  let m = Mutex.create () and c = Condition.create () in
  let state = ref `Starting in
  let starting () = match !state with `Starting -> true | _ -> false in
  let settle s =
    Mutex.lock m;
    if starting () then state := s;
    Condition.signal c;
    Mutex.unlock m
  in
  let server =
    Thread.create
      (fun () ->
        match
          Service.Endpoint.serve ~max_requests
            ~on_ready:(fun () -> settle `Listening)
            ~path backend
        with
        | _served -> ()
        | exception e -> settle (`Failed e))
      ()
  in
  Mutex.lock m;
  while starting () do
    Condition.wait c m
  done;
  let s = !state in
  Mutex.unlock m;
  (match s with `Failed e -> raise e | `Starting | `Listening -> ());
  server
