(** Blocking client for the {!Protocol}, shared by [mvl request],
    [mvl sweep --connect] and [bench serve].

    Addresses: ["unix:/path"] (or any string containing ['/']) connects
    a Unix-domain socket; ["host:port"] connects TCP. *)

open Mvl_core

type t

val connect : string -> (t, string) result
val close : t -> unit

val send_raw : t -> string -> unit
(** Writes bytes exactly as given — a pipelined sender batches many
    newline-terminated request lines into one write.  With
    {!recv_line} this is the raw pipelined interface the serving bench
    drives. *)

val recv_line : t -> (string, string) result
(** Blocks for the next reply line (newline stripped); [Error] on EOF
    or a socket error. *)

val rpc : t -> Protocol.request -> (Telemetry.json, string) result
(** One request, one reply: sends, blocks, parses the envelope and
    returns the payload (or the server's error).  The reply's [id]
    must echo the request's. *)

val rpc_pretty : t -> Protocol.request -> (string, string) result
(** {!rpc}, re-encoding the payload with
    [Telemetry.to_string ~pretty:true] — byte-identical to the one-shot
    CLI's [--json --stable] output for the same request (the encoder's
    compact → parse → pretty round trip is the identity). *)
