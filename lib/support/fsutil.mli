(** Filesystem durability helpers shared by the crash-safe writers
    (campaign journal, seed corpus, serve tenant registry).

    Appending fsync'd lines to a file is not enough when the file itself
    was created moments before a crash: the new directory entry lives in
    the directory's own data, which has its own dirty page.  Creators of
    durable files therefore fsync the {e parent directory} once after the
    create (POSIX: fsync on a directory fd flushes its entries).

    A line is acknowledged once {!append_lines} returns with its newline
    on disk, so a final line without one is a write that was never
    acknowledged (a crash or a failed write mid-append): {!fold_lines}
    skips it and {!open_appender} truncates it. *)

val fsync_dir : string -> unit
(** Open [dir] read-only and fsync it, flushing directory entries (new
    files, new subdirectories) to disk.  Filesystems that cannot fsync a
    directory fd degrade silently: crash-safety of the {e entry} is then
    best-effort, matching the historical behaviour. *)

val mkdir_p : string -> unit
(** [mkdir "-p"]: create the directory and any missing ancestors; never
    fails because a component already exists.  Each directory this call
    actually creates is made durable by fsyncing its parent. *)

val fold_lines : string -> ('a -> int -> string -> 'a) -> 'a -> 'a
(** [fold_lines path f init] folds [f acc line_no line] over the
    newline-terminated lines of [path], numbered from 1, without their
    newlines.  Raises [Sys_error] if the file cannot be read. *)

type appender

val open_appender : string -> appender * int
(** Open [path] for appending, creating it (and fsyncing its parent)
    when absent.  An unterminated final line is truncated and the file
    fsync'd; the second component is the number of bytes dropped. *)

val append_lines : appender -> string list -> unit
(** Write each line and its newline, then fsync once.  On an exception
    any prefix of the bytes may have reached the file. *)

val close_appender : appender -> unit
