(* Host-speed calibration.

   The benchmark runs on shared hosts whose speed drifts by tens of per
   cent within seconds, for all code alike.  To keep that drift out of
   the timings, the harness runs a fixed reference computation (this
   file's, compiled into the harness and never touched by the library)
   in short chunks between the units of work it times.  Units are
   grouped into segments of at least [segment_s]; chunks close each
   segment, and run.py scales the segment's time by the chunks on either
   side of it:

     scaled = measured * ref_chunk_s / mean (chunk before, chunk after)

   so a timing reads as it would on a host where one chunk takes
   ref_chunk_s (15 ms).  A faster library lowers the scaled time as it
   lowers the measured one; a slower host stretches the segment and the
   chunks around it alike, and the ratio stays.  Chunks run outside every
   timed unit, and only when [enabled] (untraced runs).

   The reference computation allocates short-lived float arrays and
   works a hash table, as the library's inference loops do: of the
   reference computations tried (pure arithmetic, random reads from an
   array larger than the caches, allocation), it tracked the drift of a
   fig3 pass most closely. *)

let segment_s = 0.3
let enabled = ref false

let table : (int, float) Hashtbl.t = Hashtbl.create 4096

let reference_work rounds =
  let acc = ref 0.0 in
  for r = 0 to rounds - 1 do
    let a = Array.init 64 (fun i -> float_of_int (i + r) *. 0.001) in
    acc := !acc +. a.(r land 63);
    Hashtbl.replace table (r land 4095) !acc;
    match Hashtbl.find_opt table ((r * 7) land 4095) with
    | Some x -> acc := !acc -. (x *. 1e-9)
    | None -> ()
  done;
  !acc

(* Every chunk's duration, for the report. *)
let all_chunks : float list ref = ref []

(* Runs [n] chunks; their mean duration. *)
let chunks n =
  let total = ref 0.0 in
  for _ = 1 to n do
    let t = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (reference_work 30000));
    let d = Unix.gettimeofday () -. t in
    all_chunks := d :: !all_chunks;
    total := !total +. d
  done;
  !total /. float_of_int n

(* A pass's measured set-up and work time, and its segments: set-up and
   work seconds in the segment, mean chunk before and after it.
   run.py scales them (stats.scaled_times). *)
let setup_s = ref 0.0
let work_s = ref 0.0
let segments : (float * float * float * float) list ref = ref []
let open_setup = ref 0.0
let open_work = ref 0.0
let before = ref nan

(* Closes the open segment with one chunk, or a few after a long one. *)
let close () =
  let seg = !open_setup +. !open_work in
  let after = chunks (min 4 (1 + int_of_float (seg /. 1.5))) in
  segments := (!open_setup, !open_work, !before, after) :: !segments;
  open_setup := 0.0;
  open_work := 0.0;
  before := after

let start_pass () =
  setup_s := 0.0;
  work_s := 0.0;
  segments := [];
  open_setup := 0.0;
  open_work := 0.0;
  if !enabled then before := chunks 2

let finish_pass () =
  if !enabled && !open_setup +. !open_work > 0.0 then close ()

(* Adds a unit of [dt] seconds, timed by the caller, as set-up or work. *)
let add ~setup dt =
  if setup then begin
    setup_s := !setup_s +. dt;
    open_setup := !open_setup +. dt
  end
  else begin
    work_s := !work_s +. dt;
    open_work := !open_work +. dt
  end;
  if !enabled && !open_setup +. !open_work >= segment_s then close ()

(* Runs [f] as one unit. *)
let timed ~setup f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  add ~setup (Unix.gettimeofday () -. t0);
  r
