(** SQL lexer. Produces the token stream consumed by {!Parser}. *)

type token =
  | Ident of string  (** lowercased unless double-quoted *)
  | Keyword of string  (** uppercased; only words in {!keywords} *)
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Param_tok of int  (** [$1] *)
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Star
  | Dot
  | Op of string  (** [=], [<>], [<=], [->], [->>], [::], [||], ... *)
  | Eof

exception Lex_error of string

val keywords : string list

(** Is the word (any case) one of {!keywords}? *)
val is_keyword : string -> bool

(** The token stream of a statement, [Eof] last. Raises {!Lex_error}
    with the offending offset. *)
val tokens : string -> token array

(** {!tokens} as a list. *)
val tokenize : string -> token list

val token_to_string : token -> string
