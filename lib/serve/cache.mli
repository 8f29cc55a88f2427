(** Content-addressed on-disk compile cache.

    Layout: one file per artifact, [DIR/KEY.json], where [KEY] is the
    {!Digest_key} hex of the request — the file's {e name} is its
    address, its {e content} is the canonical artifact document
    exactly as the reply carries it, so a cache hit returns the stored
    bytes unmodified and is byte-identical to the cold-compile reply
    that populated it.

    Writes are atomic (temp file in the same directory, then
    [rename]), so concurrent daemons sharing a directory can race on
    the same key and both end up with a complete artifact. Eviction is
    size-capped LRU-by-mtime: when an insert pushes the entry count
    over [max_entries], the oldest-mtime entries are unlinked until
    the cap holds ({!find} bumps mtime, so "oldest" is least recently
    {e used}, not least recently written). *)

type t

val open_dir : ?max_entries:int -> string -> t
(** Create/open a cache rooted at the directory (created, with
    parents, if missing). [max_entries] defaults to 4096; the cap is
    enforced on {!store}, never on {!find}. Temp files left by a
    {!store} whose process is gone are removed; a live process's are
    left alone. *)

val dir : t -> string

val find : t -> Digest_key.t -> string option
(** The stored artifact body, bumping the entry's mtime (LRU touch);
    [None] when the key is absent. *)

val store : t -> Digest_key.t -> string -> unit
(** Atomically publish the body under the key, then evict
    oldest-mtime entries down to [max_entries]. Overwriting an
    existing key is harmless (last writer wins with identical
    content — keys are content-addressed). When the write or the
    rename fails, the temp file is removed and the exception
    re-raised. *)

val entries : t -> int
(** Current number of cached artifacts (directory scan). *)
