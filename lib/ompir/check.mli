(** Static checks over a kernel — the front-end diagnostics a compiler
    would emit before attempting codegen.

    Verified properties: every referenced name is a parameter or an
    in-scope declaration; no duplicate declarations in one scope; array
    operations target array parameters of the right element kind;
    expression types are consistent ([Tint] indices, boolean-as-int
    conditions); loop variables are not assigned; worksharing directives
    are properly positioned ([distribute parallel for] / [parallel for]
    at region level, [simd] innermost — no directive nests inside a
    [simd] body); and [simd] bodies do not assign captured scalars (they
    may only write through arrays or atomics), which is what makes
    variable sharing one-directional (§4.3, §5.3.1). *)

type error = { where : string; what : string }

val pp_error : Format.formatter -> error -> unit

val kernel : Ir.kernel -> (unit, error list) result
(** All diagnostics, not just the first. *)
