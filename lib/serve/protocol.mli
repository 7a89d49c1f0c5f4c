(** The [mvl serve] wire protocol: newline-delimited Telemetry JSON.

    A connection carries a sequence of requests, one compact JSON
    object per line ([mvl.serve.request/1]); each gets exactly one
    compact reply line ([mvl.serve.reply/1]).  Replies may arrive out
    of request order under coalescing, so every request carries a
    client-chosen [id] that its reply echoes.

    Request:  [{"schema":"mvl.serve.request/1","id":7,"op":"layout",
                "spec":"hypercube:6","layers":4}]
    Reply:    [{"schema":"mvl.serve.reply/1","id":7,"ok":true,
                "payload":{...}}]
          or  [{"schema":"mvl.serve.reply/1","id":7,"ok":false,
                "error":"..."}]

    The payload of a [layout]/[validate]/[sim]/[metrics] reply is the
    {e same document} the one-shot CLI prints for that request with
    [--json --stable] (volatile fields stripped), in compact form;
    re-encoding it with [Telemetry.to_string ~pretty:true] reproduces
    the CLI output byte for byte — the identity {!Client} and the CI
    smoke rely on. *)

open Mvl_core

type op =
  | Layout of { spec : string; layers : int; validate : bool }
  | Validate of { spec : string; layers : int }
  | Sim of { spec : string; layers : int; load : float; pattern : string }
  | Metrics of { spec : string; layers : int }
  | Stats
  | Shutdown

type request = { id : int; op : op }

val cache_key : op -> string option
(** Canonical reply-cache key of a deterministic op ([None] for
    [Stats]/[Shutdown], which are volatile).  Two requests with equal
    keys have byte-identical payloads. *)

val op_cost_hint : op -> string
(** The op name ("layout", "validate", ...) — for logs and stats. *)

val encode_request : request -> string
(** One compact JSON line (no trailing newline). *)

val parse_request : string -> (request, string) result
(** Parses one request line.  Unknown fields are ignored; [id] defaults
    to 0, [layers] to 2.  Errors name the offending field. *)

val encode_reply_ok : id:int -> payload:string -> string
(** Envelope around an already-encoded compact payload (spliced
    verbatim, no re-parse — the hot path of the serving loop). *)

val encode_reply_error : id:int -> string -> string

val parse_reply : string -> (int * (Telemetry.json, string) result, string) result
(** [(id, Ok payload | Error server_message)], or [Error] on a
    malformed envelope. *)

val eval : op -> (string, string) result
(** Computes the compact payload for a deterministic op — the single
    evaluation path shared by the server's event loop and the tests.
    [Stats]/[Shutdown] are server-side ops and return [Error] here. *)
