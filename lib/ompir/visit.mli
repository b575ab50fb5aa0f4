(** One traversal of the kernel IR, with its scope rules stated once.

    The passes, the outliner and the SPMD-izer walk kernels through
    this module.  The structural helpers ({!fold}, {!exists},
    {!fold_exprs}, {!map}) know where each statement keeps its bodies
    and expressions; the scope-aware walker {!scoped} also knows which
    binding every name occurrence refers to:

    - a [Decl] binds the rest of its statement list (its initializer
      is evaluated before the binding);
    - a loop variable binds its loop's body (the bounds are outside);
    - [If] branches and [While] and loop bodies are scopes of their
      own: their declarations end with them;
    - [Guarded] is transparent: its declarations extend the enclosing
      list;
    - a [Simd_sum] summand is evaluated after the body, in its scope:
      it sees the loop variable and the body's top-level declarations;
    - an [Assign] target and a [Simd_sum] accumulator are uses of the
      visible binding, like reads;
    - array names are parameters, which no declaration may shadow, so
      they are never bound.

    {!Check}, {!Racecheck} and the evaluators carry typed or valued
    environments of their own; they follow the same rules. *)

module Names : Set.S with type elt = string

(** {1 Structure} *)

val fold : ('a -> Ir.stmt -> 'a) -> 'a -> Ir.stmt list -> 'a
(** Every statement at any depth, in pre-order. *)

val exists : (Ir.stmt -> bool) -> Ir.stmt list -> bool
(** Whether some statement at any depth satisfies the predicate. *)

val fold_expr : ('a -> Ir.expr -> 'a) -> 'a -> Ir.expr -> 'a
(** Every sub-expression, in pre-order. *)

val fold_exprs : ('a -> Ir.expr -> 'a) -> 'a -> Ir.stmt list -> 'a
(** Every sub-expression of every statement at any depth: initializers,
    right-hand sides, indices and stored values, conditions, loop
    bounds and summands.  Statements come in pre-order; a statement's
    own expressions come before its bodies'. *)

val map :
  body:(Ir.stmt list -> Ir.stmt list) -> expr:(Ir.expr -> Ir.expr) ->
  Ir.stmt -> Ir.stmt
(** One level: the statement rebuilt with [body] applied to each of its
    bodies and [expr] to each of its own expressions.  Recursion is the
    caller's, through [body]. *)

type loop = { var : string; lo : Ir.expr; hi : Ir.expr; body : Ir.stmt list }

val loop : Ir.stmt -> loop option
(** The header and body of a [For] or of a worksharing directive
    ([Simd_sum] included); [None] for any other statement. *)

val declared : Ir.stmt list -> Names.t
(** The names a statement list binds for its rest: its [Decl]s and,
    through [Guarded], theirs — the scope a [Simd_sum] summand adds to
    its loop variable. *)

(** {1 Scope} *)

type 'env scope = {
  bind : 'env -> string -> 'env * string;
      (** a binder (a [Decl] name or a loop variable) comes into scope:
          the environment its scope sees, and its name in the output *)
  read : 'env -> string -> Ir.expr;  (** a scalar read, [Var name] *)
  write : 'env -> string -> string;
      (** an [Assign] target or a [Simd_sum] accumulator *)
}

val scoped : 'env scope -> 'env -> Ir.stmt list -> Ir.stmt list
(** Rebuild a statement list, calling the scope's functions at every
    binder and name occurrence with the environment the rules above
    give it.  Array names are left as they are. *)

val free_names : Ir.stmt list -> Names.t
(** Names used and not bound within the statements: scalar reads,
    assignment targets, accumulators and arrays (which become payload
    pointers when a directive is outlined). *)

val free_writes : Ir.stmt list -> Names.t
(** The assignment targets and accumulators among {!free_names}: the
    writes that escape the statements. *)

val rename : (string -> string option) -> Ir.stmt list -> Ir.stmt list
(** [rename f stmts] renames every binder [x] with [f x = Some y] to
    [y], and every use it binds, writes included; free occurrences keep
    their names.  The new names must not occur in [stmts]. *)

val subst : var:string -> by:Ir.expr -> Ir.stmt list -> Ir.stmt list
(** Replace every free read of [var] by [by].  Writes are left alone
    ([var] is meant to be a loop variable, which is never assigned), and
    the names [by] reads must not be rebound where [var] is free. *)
