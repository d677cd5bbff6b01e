(** Imperative pairing heap (min-heap).

    No engine module uses it: the event queue keeps its own int-keyed
    binary heap.  It stays because the perfbench layer microbenchmark
    ([perfbench/layers.ml]) times it; retiring it is a change to the
    benchmark.  Amortized O(1) insert and O(log n) delete-min.  Elements
    are ordered by the comparison function supplied at creation; ties
    are broken by insertion order only if the comparison says so. *)

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
(** Build a heap from the elements; O(n) (n O(1) inserts). *)

val to_list_unordered : 'a t -> 'a list
(** All elements, in unspecified order; O(n). For tests and introspection. *)
