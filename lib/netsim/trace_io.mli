(** Replayable measurement traces: the observable half of a simulation
    run serialized one measurement interval per line, in arrival order.

    This is the one measurement input format: the replay reader
    ({!Tomo_stream.Source}) consumes it line by line from a file or
    stdin, and the socket ingestion plane one record per frame:

    {v
    tomo-trace v1
    paths <n>
    tick <t> <status-string>       (one per interval, in time order)
    v}

    The status string has one character per {e path}, ['1'] = good,
    ['0'] = congested — one interval's column of the batch
    {!Tomo.Observations} matrix, because a streaming consumer receives
    whole intervals, not whole path histories. *)

(** [interval_statuses result ~interval] is one interval's column of path
    statuses (bit [p] set iff path [p] was good) — the batch a streaming
    source would deliver for that tick.
    @raise Invalid_argument if the interval is out of range. *)
val interval_statuses :
  Run.result -> interval:int -> Tomo_util.Bitset.t

val write : Format.formatter -> Run.result -> unit
val to_string : Run.result -> string
val save : string -> Run.result -> unit
