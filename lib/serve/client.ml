(* One-shot client. The request frame is written before the hello is
   read: the server sends its hello together with the reply, after it
   has read the request, so waiting for the hello first would
   deadlock. *)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let request ~socket req =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("socket: " ^ Unix.error_message e)
  | fd ->
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    Fun.protect ~finally (fun () ->
        let connected =
          match Unix.connect fd (Unix.ADDR_UNIX socket) with
          | () -> Ok ()
          | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "connect %s: %s" socket (Unix.error_message e))
        in
        let* () = connected in
        let sent =
          match Protocol.write_frame fd (Protocol.request_to_json req) with
          | () -> Ok ()
          | exception Unix.Unix_error (e, _, _) ->
            Error ("send: " ^ Unix.error_message e)
        in
        let* () = sent in
        let* hello_payload =
          Result.map_error (fun e -> "hello: " ^ e) (Protocol.read_frame fd)
        in
        let* hello = Protocol.hello_of_json hello_payload in
        let* () =
          if String.equal hello.Protocol.h_proto Protocol.proto then Ok ()
          else
            Error
              (Printf.sprintf
                 "protocol mismatch: daemon speaks %S, client %S"
                 hello.Protocol.h_proto Protocol.proto)
        in
        let* reply_payload =
          Result.map_error (fun e -> "reply: " ^ e) (Protocol.read_frame fd)
        in
        let* reply = Protocol.reply_of_json reply_payload in
        Ok (hello, reply))

let request_or_local ~socket req =
  match request ~socket req with
  | Ok (hello, reply) -> `Remote (hello, reply)
  | Error _ ->
    let ok, body = Service.run req in
    `Local (ok, body)
