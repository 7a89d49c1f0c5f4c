open Mvl_core
module Ring_buffer = Mvl_ring.Ring_buffer

type addr = Unix_sock of string | Tcp of string * int

type config = {
  addr : addr;
  cache_entries : int;
  cache_bytes : int;
  max_pending : int;
  idle_timeout : float;
  log : bool;
}

let default_config =
  {
    addr = Unix_sock "/tmp/mvl.sock";
    cache_entries = 1024;
    cache_bytes = 256 * 1024 * 1024;
    max_pending = 1024;
    idle_timeout = 300.0;
    log = false;
  }

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  pending : string Ring_buffer.t;  (* complete reply lines, oldest first *)
  mutable out : string;            (* line currently being written *)
  mutable out_off : int;
  mutable last_active : float;     (* monotonic seconds *)
  mutable alive : bool;
  mutable eof : bool;              (* peer shut its write side *)
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  mutable clients : client list;
  reply_cache : (string, string) Mvl.Cache.t;
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  (* one-line parse memo: a pipelined client repeating a request sends
     byte-identical lines, and re-parsing them would dominate the
     cached-hit path *)
  mutable memo_line : string;
  mutable memo_parsed :
    (Protocol.request * string option, string) result;
  mutable stop : bool;
  mutable stop_at : float;  (* monotonic seconds *)
}

let log t fmt =
  if t.config.log then Printf.eprintf ("mvl serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let port t = t.bound_port

(* seconds on the monotonic clock: a wall-clock step can neither fire
   nor postpone the idle and shutdown timers *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create config =
  let listen_fd, bound_port =
    match config.addr with
    | Unix_sock path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 128;
        (fd, 0)
    | Tcp (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        Unix.bind fd (Unix.ADDR_INET (ip, port));
        Unix.listen fd 128;
        let actual =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> 0
        in
        (fd, actual)
  in
  Unix.set_nonblock listen_fd;
  {
    config;
    listen_fd;
    bound_port;
    clients = [];
    reply_cache =
      Mvl.Cache.create ~max_bytes:(max 1 config.cache_bytes)
        ~capacity:(max 1 config.cache_entries) ();
    requests = 0;
    hits = 0;
    misses = 0;
    memo_line = "";
    memo_parsed = Error "empty request";
    stop = false;
    stop_at = 0.0;
  }

(* --- client bookkeeping ------------------------------------------------ *)

(* no reply queued or partly written *)
let flushed c = c.out = "" && Ring_buffer.is_empty c.pending

let disconnect t c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.clients <- List.filter (fun x -> x != c) t.clients;
    log t "client disconnected (%d left)" (List.length t.clients)
  end

(* queue one reply line; a client that stops draining its socket hits
   the pending bound and is dropped instead of wedging the loop *)
let enqueue_line t c line =
  if c.alive then begin
    if flushed c then begin
      c.out <- line ^ "\n";
      c.out_off <- 0
    end
    else if Ring_buffer.length c.pending >= t.config.max_pending then begin
      log t "client over pending-reply bound (%d), dropping"
        t.config.max_pending;
      disconnect t c
    end
    else Ring_buffer.push c.pending (line ^ "\n")
  end

(* coalesce queued reply lines into one outgoing string so a deep
   pipelined batch drains in a few large writes, not one write syscall
   per reply *)
let flush_batch_bytes = 60 * 1024

let refill_out c =
  if c.out = "" && not (Ring_buffer.is_empty c.pending) then begin
    match Ring_buffer.pop_opt c.pending with
    | None -> ()
    | Some first ->
        if Ring_buffer.is_empty c.pending then c.out <- first
        else begin
          let b = Buffer.create (2 * String.length first) in
          Buffer.add_string b first;
          let continue = ref true in
          while !continue && Buffer.length b < flush_batch_bytes do
            match Ring_buffer.pop_opt c.pending with
            | Some s -> Buffer.add_string b s
            | None -> continue := false
          done;
          c.out <- Buffer.contents b
        end;
        c.out_off <- 0
  end

(* a client that shut its write side is closed once no reply to it is
   queued or partly written *)
let close_if_done t c = if c.eof && flushed c then disconnect t c

let rec flush_client t c =
  if c.alive then begin
    refill_out c;
    if c.out = "" then close_if_done t c
    else
      let len = String.length c.out - c.out_off in
      match Unix.write_substring c.fd c.out c.out_off len with
      | 0 -> ()
      | n ->
          c.out_off <- c.out_off + n;
          if c.out_off = String.length c.out then begin
            c.out <- "";
            c.out_off <- 0;
            flush_client t c
          end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> disconnect t c
  end

(* --- request handling -------------------------------------------------- *)

let stats_payload t =
  let open Mvl.Telemetry in
  let cs = Mvl.Cache.stats t.reply_cache in
  let ps = Mvl.Pipeline.cache_stats () in
  to_string
    (Obj
       [
         ("schema", String "mvl.serve.stats/1");
         ("requests", Int t.requests);
         ("hits", Int t.hits);
         ("misses", Int t.misses);
         ( "reply_cache",
           Obj
             [
               ("entries", Int (Mvl.Cache.length t.reply_cache));
               ("resident_bytes", Int (Mvl.Cache.resident_bytes t.reply_cache));
               ("admissions", Int cs.Mvl.Cache.admissions);
               ("rejections", Int cs.Mvl.Cache.rejections);
               ("evictions", Int cs.Mvl.Cache.evictions);
             ] );
         ( "pipeline",
           Obj
             [
               ("hits", Int ps.Mvl.Pipeline.hits);
               ("misses", Int ps.Mvl.Pipeline.misses);
               ("coalesced", Int ps.Mvl.Pipeline.coalesced);
               ("entries", Int (Mvl.Pipeline.cache_size ()));
               ("resident_bytes", Int (Mvl.Pipeline.cache_resident_bytes ()));
             ] );
         ("clients", Int (List.length t.clients));
       ])

let shutdown_payload = "{\"schema\":\"mvl.serve.shutdown/1\"}"

let parse_memo t line =
  if String.equal line t.memo_line then t.memo_parsed
  else begin
    let parsed =
      match Protocol.parse_request line with
      | Error _ as e -> e
      | Ok r -> Ok (r, Protocol.cache_key r.Protocol.op)
    in
    t.memo_line <- line;
    t.memo_parsed <- parsed;
    parsed
  end

(* a miss is evaluated here and now, timed on the monotonic clock, and
   its payload admitted into the reply cache (cost = measured seconds,
   size = payload bytes — the GDSF inputs); an exception becomes an
   error reply.  The client was waiting on the loop, not idle, so its
   idle time starts when the answer is ready. *)
let evaluate t c ~id key op =
  t.misses <- t.misses + 1;
  let t0 = now () in
  let result = try Protocol.eval op with e -> Error (Printexc.to_string e) in
  let t1 = now () in
  c.last_active <- t1;
  match result with
  | Ok payload ->
      ignore
        (Mvl.Cache.add t.reply_cache key payload ~cost:(t1 -. t0)
           ~size:(String.length payload));
      enqueue_line t c (Protocol.encode_reply_ok ~id ~payload)
  | Error msg -> enqueue_line t c (Protocol.encode_reply_error ~id msg)

let handle_request t c line =
  t.requests <- t.requests + 1;
  match parse_memo t line with
  | Error msg -> enqueue_line t c (Protocol.encode_reply_error ~id:0 msg)
  | Ok ({ Protocol.id; op }, cache_key) -> (
      match op with
      | Protocol.Shutdown ->
          enqueue_line t c
            (Protocol.encode_reply_ok ~id ~payload:shutdown_payload);
          if not t.stop then begin
            t.stop <- true;
            t.stop_at <- now ();
            log t "shutdown requested"
          end
      | Protocol.Stats ->
          enqueue_line t c
            (Protocol.encode_reply_ok ~id ~payload:(stats_payload t))
      | _ -> (
          let key = Option.get cache_key in
          match Mvl.Cache.find_opt t.reply_cache key with
          | Some payload ->
              t.hits <- t.hits + 1;
              enqueue_line t c (Protocol.encode_reply_ok ~id ~payload)
          | None -> evaluate t c ~id key op))

(* a request line may not exceed this; protects the loop from a
   client streaming garbage with no newline *)
let max_line_bytes = 1 lsl 20

let process_lines t c =
  let s = Buffer.contents c.inbuf in
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if String.unsafe_get s i = '\n' then begin
      let line = String.sub s !start (i - !start) in
      if String.length line > 0 && c.alive then handle_request t c line;
      start := i + 1
    end
  done;
  if !start > 0 then begin
    Buffer.clear c.inbuf;
    Buffer.add_substring c.inbuf s !start (n - !start)
  end;
  if Buffer.length c.inbuf > max_line_bytes then begin
    log t "request line over %d bytes, dropping client" max_line_bytes;
    disconnect t c
  end

let read_chunk = Bytes.create 65536

(* EOF stops the reading, not the replies: a client that shuts its
   write side after its requests still gets every answer, the one to
   a last line sent without its newline included *)
let read_client t c =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 ->
      c.eof <- true;
      if Buffer.length c.inbuf > 0 then begin
        Buffer.add_char c.inbuf '\n';
        process_lines t c
      end;
      close_if_done t c
  | n ->
      c.last_active <- now ();
      Buffer.add_subbytes c.inbuf read_chunk 0 n;
      process_lines t c
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> disconnect t c

let accept_new t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      (match t.config.addr with
      | Tcp _ -> (
          try Unix.setsockopt fd Unix.TCP_NODELAY true
          with Unix.Unix_error _ -> ())
      | Unix_sock _ -> ());
      let c =
        {
          fd;
          inbuf = Buffer.create 256;
          pending = Ring_buffer.create ~dummy:"" ();
          out = "";
          out_off = 0;
          last_active = now ();
          alive = true;
          eof = false;
        }
      in
      t.clients <- c :: t.clients;
      log t "client connected (%d total)" (List.length t.clients)
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()

(* run as [select] returns, before any request is read.  A build may
   block the loop past [idle_timeout]; a client that sent a request
   meanwhile is readable, and one still draining its replies is
   writable, so neither is idle *)
let idle_scan t rset wset =
  if t.config.idle_timeout > 0.0 then begin
    let now = now () in
    List.iter
      (fun c ->
        if
          c.alive
          && now -. c.last_active > t.config.idle_timeout
          && not (List.memq c.fd rset || List.memq c.fd wset)
        then begin
          log t "idle timeout";
          disconnect t c
        end)
      t.clients
  end

let all_flushed t = List.for_all flushed t.clients

let serve t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  log t "listening";
  (* the loop wakes at least this often, so an idle timeout under a
     second still fires on time *)
  let tick =
    if t.config.idle_timeout > 0.0 then Float.min 1.0 t.config.idle_timeout
    else 1.0
  in
  let finished () =
    t.stop && (all_flushed t || now () -. t.stop_at > 2.0)
  in
  while not (finished ()) do
    let snapshot = t.clients in
    let rds =
      t.listen_fd
      :: List.filter_map (fun c -> if c.eof then None else Some c.fd) snapshot
    in
    let wrs =
      List.filter_map
        (fun c -> if flushed c then None else Some c.fd)
        snapshot
    in
    match Unix.select rds wrs [] tick with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rset, wset, _ ->
        idle_scan t rset wset;
        if List.memq t.listen_fd rset then accept_new t;
        List.iter
          (fun c -> if c.alive && List.memq c.fd rset then read_client t c)
          snapshot;
        List.iter
          (fun c -> if c.alive && List.memq c.fd wset then flush_client t c)
          snapshot
  done;
  List.iter (fun c -> disconnect t c) t.clients;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.config.addr with
  | Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  log t "stopped"
