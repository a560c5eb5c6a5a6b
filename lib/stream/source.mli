(** The replay reader: where [tomo_cli serve --replay] and
    [batch-report] get their per-interval batches.

    A batch is one measurement interval's column of path statuses — a
    {!Tomo_util.Bitset.t} over paths, bit [p] set iff path [p] was
    measured good.  The input is a [tomo-trace v1] stream
    ({!Tomo_netsim.Trace_io}'s format) read line by line from a file or
    stdin; every line goes through {!Record}, the same parser the socket
    ingestion plane feeds frame by frame, so a malformed record gets the
    same [file:line]-anchored [Failure] on either transport. *)

type t

(** [of_trace_file path] opens a [tomo-trace v1] file, or stdin when
    [path] is ["-"], and reads up to its [paths] line eagerly: an empty,
    blank-only, truncated or alien-header file fails here, at open time,
    with a [Failure] naming [path] and the offending line (line 1 and
    the expected [tomo-trace v1] header when none is found).  Emits a
    [source_open] event.
    @raise Sys_error if the file cannot be opened. *)
val of_trace_file : string -> t

(** The declared path count. *)
val n_paths : t -> int

(** [next t] blocks until the next interval batch is available and
    returns its column of path statuses; [None] means the stream ended
    cleanly (emitting a [source_eof] event once) or [t] was closed.
    @raise Failure on a malformed, ragged or out-of-order tick,
    anchored at [file:line]. *)
val next : t -> Tomo_util.Bitset.t option

(** Close the underlying file (stdin is left open).  Idempotent. *)
val close : t -> unit

(** [fold t f init] drains the reader, folding [f] over every batch. *)
val fold : t -> ('a -> Tomo_util.Bitset.t -> 'a) -> 'a -> 'a

(** [drop t n] discards up to [n] batches and returns how many were
    actually available — how a restored engine fast-forwards a replay
    past the intervals its snapshot already contains. *)
val drop : t -> int -> int
