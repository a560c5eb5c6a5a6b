module Bitset = Tomo_util.Bitset
module Obs = Tomo_obs

(* tomo-trace v1 over an input channel.  The record grammar itself
   lives in {!Record}, shared with the socket ingestion plane. *)
type t = {
  ic : in_channel;
  owns_channel : bool;
  rcd : Record.t;
  mutable closed : bool;
  mutable eof : bool;
}

let n_paths t = Option.value ~default:0 (Record.n_paths t.rcd)

(* Feed lines until one carries a tick batch; [None] = clean EOF. *)
let rec next t =
  if t.closed || t.eof then None
  else
    match In_channel.input_line t.ic with
    | None ->
        t.eof <- true;
        Obs.Events.emit "source_eof"
          [
            ("source", Record.origin t.rcd);
            ("ticks", string_of_int (Record.next_tick t.rcd));
          ];
        None
    | Some line -> (
        match Record.feed t.rcd line with
        | Record.Tick good -> Some good
        | Record.Blank | Record.Header | Record.Paths _ -> next t)

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.owns_channel then close_in t.ic
  end

let fold t f init =
  let rec go acc =
    match next t with None -> acc | Some good -> go (f acc good)
  in
  go init

let drop t n =
  let rec go dropped =
    if dropped >= n then dropped
    else match next t with None -> dropped | Some _ -> go (dropped + 1)
  in
  go 0

let of_channel ~filename ~owns_channel ic =
  let rcd = Record.create ~origin:filename () in
  let t = { ic; owns_channel; rcd; closed = false; eof = false } in
  (* Validate the header and path count eagerly, so a wrong file fails
     at open time rather than on the first [next]. *)
  let rec eat_until_paths saw_header =
    match In_channel.input_line ic with
    | None ->
        if saw_header then
          Record.fail rcd "truncated trace: missing 'paths <n>' line"
        else
          Record.fail_at ~origin:filename ~lineno:1
            "empty trace (expected a '%s' header)" Record.header_magic
    | Some line -> (
        match Record.feed rcd line with
        | Record.Paths _ -> ()
        | Record.Header -> eat_until_paths true
        | Record.Blank -> eat_until_paths saw_header
        | Record.Tick _ -> assert false (* unreachable before Paths *))
  in
  eat_until_paths false;
  Obs.Events.emit "source_open"
    [ ("source", filename); ("paths", string_of_int (n_paths t)) ];
  t

let of_trace_file path =
  if path = "-" then
    of_channel ~filename:"<stdin>" ~owns_channel:false stdin
  else of_channel ~filename:path ~owns_channel:true (open_in path)
