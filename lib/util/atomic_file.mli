(** Crash-safe file replacement. *)

val write : string -> string -> unit
(** [write path contents] writes [contents] to [path ^ ".tmp"] and
    renames it over [path], so a reader (or a run killed mid-write)
    sees either the old file or the new one, never a torn one. Raises
    [Sys_error] on failure, after removing the temp file. *)
