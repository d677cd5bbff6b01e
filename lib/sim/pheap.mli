(** Imperative pairing heap (min-heap).

    Used as the backing store of the event queue.  Amortized O(1) insert
    and O(log n) delete-min.  Elements are ordered by the comparison
    function supplied at creation; ties are broken by insertion order only
    if the comparison says so (the event queue encodes a sequence number
    in its keys for that purpose). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val insert : 'a t -> 'a -> unit
val peek_min : 'a t -> 'a option
val pop_min : 'a t -> 'a option

val top : 'a t -> 'a
(** The minimum, without allocating.  Raises [Invalid_argument] on an
    empty heap. *)

val drop_min : 'a t -> unit
(** Remove the minimum, without returning it; no-op on an empty heap.
    [top] then [drop_min] is {!pop_min} minus the option. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
(** Build a heap from the elements; O(n) (n O(1) inserts).  Used by the
    event queue to rebuild itself when compacting away cancelled
    entries. *)

val to_list_unordered : 'a t -> 'a list
(** All elements, in unspecified order; O(n). For tests and introspection. *)
