(** Directory-entry durability: fsync the parent after creating a file or
    directory, so a crash immediately after the create cannot lose the
    entry itself (the per-append fsync of {!append_lines} only covers the
    file's {e contents}). *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* Some filesystems reject fsync on a directory fd; entry
             durability is best-effort there. *)
          try Unix.fsync fd with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (match Unix.mkdir dir 0o755 with
     | () -> fsync_dir parent
     | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

(* [input_line] also returns a final line that has no newline; only then
   does the channel advance by the line's length alone. *)
let fold_lines path f init =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc line_no =
        let start = pos_in ic in
        match input_line ic with
        | exception End_of_file -> acc
        | line when pos_in ic > start + String.length line ->
            go (f acc line_no line) (line_no + 1)
        | _ -> acc
      in
      go init 1)

type appender = { fd : Unix.file_descr; mutable buf : Bytes.t }

(* Bytes after the last newline of [path], read backwards from its end. *)
let torn_tail path =
  In_channel.with_open_bin path (fun ic ->
      let size = in_channel_length ic in
      let buf = Bytes.create 4096 in
      let rec scan stop =
        if stop = 0 then size
        else
          let start = max 0 (stop - Bytes.length buf) in
          seek_in ic start;
          really_input ic buf 0 (stop - start);
          match Bytes.rindex_from_opt buf (stop - start - 1) '\n' with
          | Some i -> size - (start + i + 1)
          | None -> scan start
      in
      scan size)

let open_appender path =
  let fresh = not (Sys.file_exists path) in
  let fd =
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  if fresh then fsync_dir (Filename.dirname path);
  let size = (Unix.fstat fd).Unix.st_size in
  let torn = if size = 0 then 0 else torn_tail path in
  if torn > 0 then begin
    Unix.ftruncate fd (size - torn);
    Unix.fsync fd
  end;
  ({ fd; buf = Bytes.empty }, torn)

(* The lines are copied into one reused buffer: one write per append,
   and no allocation once the buffer fits the largest append.
   [Unix.write] retries short writes and raises on the first failed
   one, leaving whatever reached the file as a torn tail. *)
let append_lines a lines =
  let len = List.fold_left (fun n l -> n + String.length l + 1) 0 lines in
  if Bytes.length a.buf < len then a.buf <- Bytes.create (2 * len);
  ignore
    (List.fold_left
       (fun off l ->
         let n = String.length l in
         Bytes.blit_string l 0 a.buf off n;
         Bytes.set a.buf (off + n) '\n';
         off + n + 1)
       0 lines);
  ignore (Unix.write a.fd a.buf 0 len);
  Unix.fsync a.fd

let close_appender a = try Unix.close a.fd with Unix.Unix_error _ -> ()
