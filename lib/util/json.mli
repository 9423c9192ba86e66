(** The one JSON value type, printer and parser of the tool: every JSON
    document modemerge writes is built as a {!t} and printed by
    {!to_buffer}; every one it reads goes through {!parse}.

    {b Number rules.} A float prints by one of three rules, named where
    the value is built: {!display} ([%.9g], values meant to be read),
    {!exact} (the shortest of [%.15g]/[%.17g] that reads back equal,
    for the run history) and {!stamp} ([%.6f], event wall-clock
    timestamps). Under every rule a non-finite value prints as [null],
    so a broken measurement reads as absent, never as a real zero.
    {!Int} prints as plain digits. The printer is compact: no
    whitespace between tokens. *)

type rule = Display | Stamp

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float  (** the {!exact} rule; {!parse} returns every number so *)
  | Str of string  (** raw bytes; control characters are escaped *)
  | Arr of t list
  | Obj of (string * t) list  (** fields print in list order *)
  | Rounded of rule * float  (** a lossy rule; {!parse} never returns it *)

val display : float -> t
val exact : float -> t
val stamp : float -> t

val strings : string list -> t
val string_map : (string * string) list -> t
(** An object of string fields. *)

val option : ('a -> t) -> 'a option -> t
(** [Null] for [None]. *)

val escape : string -> string
(** The body of a JSON string literal, without the quotes: double
    quote, backslash, newline, CR and tab get short escapes, other
    control characters [\u00XX]; every other byte is copied. *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

exception Parse_error of string

val parse : string -> t
(** Parse one JSON document; raises {!Parse_error} on malformed input
    (including trailing garbage). Tolerant of whitespace, field order
    and unknown fields. [\u] escapes beyond ASCII decode as ['?']. *)

val member : string -> t -> t option
(** First field of that name of an [Obj]; [None] otherwise. *)

val str_member : string -> t -> string option
(** {!member} when the field is a [Str]. *)
