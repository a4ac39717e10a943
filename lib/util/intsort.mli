(** Monomorphic in-place sorting of [int array]s.

    [Array.sort compare] pays a polymorphic-comparison call per element
    pair, which dominates join post-processing (every output group is
    sorted).  This module compares unboxed ints directly and picks one
    of three strategies by the range:

    - up to 32 elements: insertion sort;
    - more, all non-negative: LSD radix sort with 8-bit digits, one
      pass per significant byte of the range's maximum (2-3 passes for
      dictionary-encoded ids).  Its digit table and, up to 256
      elements, its scratch buffer are minor-heap allocations;
    - more, with a negative value: quicksort (median-of-three pivot,
      insertion sort on ranges of at most 16).  Id arrays never take this
      path; it keeps the contract total. *)

val sort : int array -> unit

val sort_sub : int array -> lo:int -> hi:int -> unit
(** Sorts the half-open range [\[lo, hi)], leaving every other cell
    untouched.  Raises [Invalid_argument] unless
    [0 <= lo <= hi <= Array.length a]. *)
