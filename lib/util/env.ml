(* Environment-variable access with one shared convention: a variable
   that is unset OR set to a blank string means "use the default".
   Shells export empty strings readily (VAR= cmd), and Unix.putenv
   cannot remove a variable at all, so a caller that wants to restore
   the default can only set "" — every knob must therefore treat blank
   as unset.  [lookup] defaults to the process environment; a parser
   can run the same rules over any table (tests do). *)

let var ?(lookup = Sys.getenv_opt) name =
  match lookup name with
  | None -> None
  | Some s -> (
      match String.trim s with "" -> None | trimmed -> Some trimmed)

let int ?lookup name ~default =
  match var ?lookup name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "%s must be an integer, got %S" name s))

let float ?lookup name ~default =
  match var ?lookup name with
  | None -> default
  | Some s -> (
      match float_of_string_opt s with
      | Some v -> v
      | None ->
          invalid_arg (Printf.sprintf "%s must be a number, got %S" name s))

let flag ?lookup name ~default =
  match var ?lookup name with
  | None -> default
  | Some ("1" | "on" | "true" | "yes") -> true
  | Some ("0" | "off" | "false" | "no") -> false
  | Some s ->
      invalid_arg
        (Printf.sprintf "%s must be a boolean (1/on/true/yes or 0/off/false/no), got %S"
           name s)
