(* Classic pairing heap with a two-pass merge for delete-min.  Purely
   functional nodes under a mutable root so the interface is imperative.
   The root is a tree, not a tree option, so neither an insert nor a
   [top]/[drop_min] pair allocates an option. *)

type 'a tree = Empty | Node of 'a * 'a tree list

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable root : 'a tree;
  mutable size : int;
}

let create ~cmp = { cmp; root = Empty; size = 0 }
let is_empty h = h.size = 0
let size h = h.size

let merge cmp a b =
  match (a, b) with
  | Empty, t | t, Empty -> t
  | Node (xa, ca), Node (xb, cb) ->
      if cmp xa xb <= 0 then Node (xa, b :: ca) else Node (xb, a :: cb)

let insert h x =
  h.root <- merge h.cmp h.root (Node (x, []));
  h.size <- h.size + 1

let top h =
  match h.root with Node (x, _) -> x | Empty -> invalid_arg "Pheap.top: empty"

let peek_min h = match h.root with Empty -> None | Node (x, _) -> Some x

(* Two-pass pairing: merge children pairwise left-to-right, then fold the
   results right-to-left.  The recursion depth is the number of pairs,
   i.e. half the child count, which is fine in practice. *)
let rec merge_pairs cmp = function
  | [] -> Empty
  | [ t ] -> t
  | a :: b :: rest ->
      let ab = merge cmp a b in
      merge cmp ab (merge_pairs cmp rest)

let drop_min h =
  match h.root with
  | Empty -> ()
  | Node (_, children) ->
      h.root <- merge_pairs h.cmp children;
      h.size <- h.size - 1

let pop_min h =
  match h.root with
  | Empty -> None
  | Node (x, children) ->
      h.root <- merge_pairs h.cmp children;
      h.size <- h.size - 1;
      Some x

let of_list ~cmp xs =
  let h = create ~cmp in
  List.iter (insert h) xs;
  h

let to_list_unordered h =
  let rec go acc = function
    | [] -> acc
    | Empty :: rest -> go acc rest
    | Node (x, children) :: rest -> go (x :: acc) (children @ rest)
  in
  go [] [ h.root ]
