type token =
  | Ident of string
  | Keyword of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Param_tok of int
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Star
  | Dot
  | Op of string
  | Eof

exception Lex_error of string

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "LIMIT";
    "OFFSET"; "ASC"; "DESC"; "DISTINCT"; "AS"; "AND"; "OR"; "NOT"; "IS";
    "NULL"; "TRUE"; "FALSE"; "IN"; "BETWEEN"; "LIKE"; "ILIKE"; "EXISTS";
    "JOIN"; "INNER"; "LEFT"; "OUTER"; "CROSS"; "ON"; "INSERT"; "INTO";
    "VALUES"; "UPDATE"; "SET"; "DELETE"; "CREATE"; "TABLE"; "INDEX"; "DROP";
    "ALTER"; "ADD"; "COLUMN"; "PRIMARY"; "KEY"; "DEFAULT"; "USING";
    "TRUNCATE"; "COPY"; "STDIN"; "BEGIN"; "COMMIT"; "ROLLBACK"; "ABORT";
    "PREPARE"; "PREPARED"; "TRANSACTION"; "EXECUTE"; "DEALLOCATE"; "VACUUM";
    "CALL"; "IF"; "CASE";
    "WHEN"; "THEN"; "ELSE"; "END"; "CAST"; "COUNT"; "SUM"; "AVG"; "MIN";
    "MAX"; "CONFLICT"; "DO"; "NOTHING"; "COLUMNAR"; "GIN"; "BTREE"; "WITH";
    "RECURSIVE";
  ]

(* Keyword recognition is a table lookup, built once from [keywords]:
   buckets chained by a case-insensitive hash of the word, probed
   straight from the source slice, so classifying a word neither copies
   nor upper-cases it. A hit yields the table's own uppercase string,
   which every [Keyword] token of that word shares. *)
let kw_mask = 255

let rec hash_slice s i stop h =
  if i >= stop then h land kw_mask
  else
    hash_slice s (i + 1) stop
      (((h * 31) + Char.code (Char.uppercase_ascii s.[i])) land max_int)

let rec slice_is kw s start i len =
  i >= len
  || Char.equal (Char.uppercase_ascii s.[start + i]) kw.[i]
     && slice_is kw s start (i + 1) len

let kw_table =
  let tbl = Array.make (kw_mask + 1) [] in
  List.iter
    (fun k ->
      let b = hash_slice k 0 (String.length k) 0 in
      tbl.(b) <- k :: tbl.(b))
    keywords;
  tbl

let rec find_kw bucket s start len =
  match bucket with
  | [] -> ""
  | k :: rest ->
    if String.length k = len && slice_is k s start 0 len then k
    else find_kw rest s start len

(* The keyword spelled by [s.[start .. start+len-1]], in upper case, or
   [""] when that word is not a keyword. *)
let keyword_of_slice s start len =
  find_kw kw_table.(hash_slice s start (start + len) 0) s start len

let is_keyword s = String.length (keyword_of_slice s 0 (String.length s)) > 0

let is_ident_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let is_digit c = match c with '0' .. '9' -> true | _ -> false

let lowercase_sub s start len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.lowercase_ascii s.[start + i])
  done;
  Bytes.unsafe_to_string b

(* Tokens go straight into a growable array, which is what the parser
   indexes; the result is trimmed to the stream, [Eof] last. *)
let tokens src =
  let n = String.length src in
  let pos = ref 0 in
  let out = ref (Array.make ((n / 4) + 8) Eof) in
  let count = ref 0 in
  let emit t =
    if !count = Array.length !out then begin
      let grown = Array.make (2 * !count) Eof in
      Array.blit !out 0 grown 0 !count;
      out := grown
    end;
    !out.(!count) <- t;
    incr count
  in
  (* the character [k] places ahead, ['\000'] past the end (no branch
     below tests for NUL, so the sentinel never matches) *)
  let at k = if !pos + k < n then src.[!pos + k] else '\000' in
  let op s len =
    emit (Op s);
    pos := !pos + len
  in
  let fail msg = raise (Lex_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  while !pos < n do
    let c = src.[!pos] in
    match c with
    | ' ' | '\t' | '\n' | '\r' -> incr pos
    | '-' when at 1 = '-' ->
      (* line comment *)
      while !pos < n && src.[!pos] <> '\n' do incr pos done
    | '(' -> emit Lparen; incr pos
    | ')' -> emit Rparen; incr pos
    | ',' -> emit Comma; incr pos
    | ';' -> emit Semicolon; incr pos
    | '*' -> emit Star; incr pos
    | '.' when not (is_digit (at 1)) -> emit Dot; incr pos
    | '\'' ->
      incr pos;
      let start = !pos in
      while !pos < n && src.[!pos] <> '\'' do incr pos done;
      if !pos < n && at 1 <> '\'' then begin
        (* no '' escape: the literal is a slice of the source *)
        emit (String_lit (String.sub src start (!pos - start)));
        incr pos
      end
      else begin
        (* string literal with '' escaping *)
        pos := start;
        let buf = Buffer.create 16 in
        let rec go () =
          if !pos >= n then fail "unterminated string"
          else if src.[!pos] = '\'' then
            if at 1 = '\'' then begin
              Buffer.add_char buf '\'';
              pos := !pos + 2;
              go ()
            end
            else incr pos
          else begin
            Buffer.add_char buf src.[!pos];
            incr pos;
            go ()
          end
        in
        go ();
        emit (String_lit (Buffer.contents buf))
      end
    | '"' ->
      incr pos;
      let start = !pos in
      while !pos < n && src.[!pos] <> '"' do incr pos done;
      if !pos >= n then fail "unterminated quoted identifier";
      emit (Ident (String.sub src start (!pos - start)));
      incr pos
    | '$' ->
      incr pos;
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do incr pos done;
      if !pos = start then fail "bad parameter";
      emit (Param_tok (int_of_string (String.sub src start (!pos - start))))
    | c when is_digit c || c = '.' ->
      (* a '.' reaches here only when a digit follows it *)
      let start = !pos in
      let seen_dot = ref false in
      let seen_exp = ref false in
      let more = ref true in
      while !more && !pos < n do
        match src.[!pos] with
        | '0' .. '9' -> incr pos
        | '.' when not !seen_dot && not !seen_exp ->
          seen_dot := true;
          incr pos
        | 'e' | 'E' when not !seen_exp ->
          seen_exp := true;
          incr pos;
          (match at 0 with '+' | '-' -> incr pos | _ -> ())
        | _ -> more := false
      done;
      let text = String.sub src start (!pos - start) in
      if !seen_dot || !seen_exp then emit (Float_lit (float_of_string text))
      else emit (Int_lit (int_of_string text))
    | c when is_ident_start c ->
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do incr pos done;
      let len = !pos - start in
      let k = keyword_of_slice src start len in
      if String.length k > 0 then emit (Keyword k)
      else emit (Ident (lowercase_sub src start len))
    (* operators, longest match first; [!=] is spelled [<>] *)
    | '-' ->
      if at 1 = '>' then if at 2 = '>' then op "->>" 3 else op "->" 2
      else op "-" 1
    | ':' when at 1 = ':' -> op "::" 2
    | '<' ->
      (match at 1 with '=' -> op "<=" 2 | '>' -> op "<>" 2 | _ -> op "<" 1)
    | '>' -> if at 1 = '=' then op ">=" 2 else op ">" 1
    | '!' when at 1 = '=' -> op "<>" 2
    | '|' when at 1 = '|' -> op "||" 2
    | '=' -> op "=" 1
    | '+' -> op "+" 1
    | '/' -> op "/" 1
    | '%' -> op "%" 1
    | _ -> fail (Printf.sprintf "unexpected character '%c'" c)
  done;
  emit Eof;
  if !count = Array.length !out then !out else Array.sub !out 0 !count

let tokenize src = Array.to_list (tokens src)

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Keyword s -> s
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | String_lit s -> Printf.sprintf "'%s'" s
  | Param_tok i -> Printf.sprintf "$%d" i
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Semicolon -> ";"
  | Star -> "*"
  | Dot -> "."
  | Op s -> s
  | Eof -> "<eof>"
