(** Outlining (§4.1–§4.2): isolate each worksharing directive's body into
    a "loop task" with an explicit captured-variable payload.

    This is the OpenMP IR Builder step: the front-end supplies the trip
    count and the body; the pass assigns every directive a function id
    (its position in the translation unit's if-cascade dispatch table,
    §5.5) and records which variables the outlined body captures — those
    become the [void**] payload that the runtime shares between main
    threads and workers. *)

type outlined = {
  fn_id : int;
  kind : [ `Simd | `Simd_sum | `Parallel_for | `Distribute_parallel_for ];
  loop_var : string;
  captures : string list;
      (** the directive's free names ({!Visit.free_names}: body, bounds
          and summand, arrays and scalars) except its loop variable and
          a reduction's accumulator, sorted *)
}

type program = {
  kernel : Ir.kernel;  (** directives annotated with their fn_ids *)
  outlined : outlined list;  (** in fn_id order *)
}

val run : Ir.kernel -> program
(** Assign ids in syntactic order and compute captures.  Idempotent. *)

val dispatch_table_size : program -> int

val find : program -> fn_id:int -> outlined
(** @raise Not_found for unknown ids. *)
