(** The [mvl serve] daemon: a select-based event loop serving the
    {!Protocol} over a Unix-domain or TCP socket.

    One domain does everything: it owns every socket and the reply
    cache, and it evaluates each cache miss itself, synchronously,
    before it reads the next request.  A miss is timed on the
    monotonic clock and its payload admitted to an {!Mvl.Cache} keyed
    by {!Protocol.cache_key} (GreedyDual-Size-Frequency: priority grows
    with hit frequency and measured evaluation seconds, shrinks with
    payload bytes), so a hot cached spec is answered without
    evaluating anything.  Every reply on a connection comes back in
    request order.  The price is that a request arriving while another
    client's cold build runs, a cached hit included, waits for that
    build (DESIGN.md §13).

    Flow control: replies queue per client in a bounded {!Ring_buffer}
    and drain as the socket accepts writes; a client that stops reading
    past [max_pending] queued replies is disconnected rather than
    allowed to wedge the server.  A client that shuts its write side
    still gets every reply it is owed and is closed after the last one.
    Idle connections close after [idle_timeout] seconds of the
    monotonic clock. *)

type addr =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral port *)

type config = {
  addr : addr;
  cache_entries : int;    (** reply-cache entry bound *)
  cache_bytes : int;      (** reply-cache byte budget *)
  max_pending : int;      (** queued replies per client before disconnect *)
  idle_timeout : float;   (** seconds; <= 0 disables *)
  log : bool;             (** one stderr line per lifecycle event *)
}

val default_config : config
(** Unix socket ["/tmp/mvl.sock"], 1024 entries, 256 MiB, 1024 pending
    replies, 300 s idle timeout, logging off. *)

type t

val create : config -> t
(** Binds and listens (unlinking a stale Unix-socket path first).
    Raises [Unix.Unix_error] on bind/listen failure. *)

val port : t -> int
(** The bound TCP port (useful with [Tcp (_, 0)]); [0] for a Unix
    socket. *)

val serve : t -> unit
(** Runs the event loop in the calling domain until a [shutdown]
    request arrives, then closes every socket.  Spawns no domain.
    Ignores SIGPIPE. *)
