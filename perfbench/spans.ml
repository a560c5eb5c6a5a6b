(* Harness-side span recorder.  Spans wrap calls from the benchmark into
   the library's layers; they are kept in memory and written out once,
   when the run ends.  Recording is single-threaded: only the thread
   driving the workload opens spans. *)

type span = {
  name : string;
  layer : bool;
      (* true when the span wraps a call into a library layer; false for
         the harness's own containers (setup, pass, cell), whose self
         time is the untraced share of the run *)
  run : int;  (* the pass of the workload the span belongs to *)
  parent : int;  (* index of the enclosing span, -1 for a root *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let n_recorded = ref 0
let stack : int list ref = ref []
let current_run = ref 0

let now = Unix.gettimeofday

let with_span ?(layer = true) name f =
  if not !enabled then f ()
  else begin
    let id = !n_recorded in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; layer; run = !current_run; parent; t0 = now (); t1 = nan } in
    recorded := s :: !recorded;
    incr n_recorded;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack)
      f
  end

(* One JSON array per span: [name, layer, run, parent, start, end]. *)
let write_json buf =
  Buffer.add_char buf '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "[%S,%b,%d,%d,%.17g,%.17g]" s.name s.layer s.run
        s.parent s.t0 s.t1)
    (List.rev !recorded);
  Buffer.add_char buf ']'
