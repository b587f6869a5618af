(* Lexer, parser, evaluator, compiler and pretty-printer of the
   extended-Aspen DSL. *)

module A = Aspen

let tokens src =
  List.map (fun t -> t.A.Token.token) (A.Lexer.tokenize src)

(* --- Lexer --- *)

let test_lex_punctuation () =
  Alcotest.(check int) "count" 10
    (List.length (tokens "{ } ( ) , ; : = * ")) (* 9 + Eof *)

let test_lex_numbers () =
  match tokens "42 3.5 50e9 1e-3" with
  | [ A.Token.Int 42; A.Token.Float a; A.Token.Float b; A.Token.Float c;
      A.Token.Eof ] ->
      Alcotest.(check (float 1e-9)) "3.5" 3.5 a;
      Alcotest.(check (float 1.0)) "50e9" 50e9 b;
      Alcotest.(check (float 1e-12)) "1e-3" 1e-3 c
  | ts -> Alcotest.failf "unexpected tokens (%d)" (List.length ts)

let test_lex_identifiers_and_keywords () =
  match tokens "app vm_2 _x" with
  | [ A.Token.Ident "app"; A.Token.Ident "vm_2"; A.Token.Ident "_x"; A.Token.Eof ] -> ()
  | _ -> Alcotest.fail "identifier lexing"

let test_lex_comments () =
  Alcotest.(check int) "line comment" 2
    (List.length (tokens "x // ignored to the end\n"));
  Alcotest.(check int) "block comment" 3
    (List.length (tokens "a /* skip { } */ b"))

let test_lex_positions () =
  let located = A.Lexer.tokenize "ab\n  cd" in
  match located with
  | [ a; b; _eof ] ->
      Alcotest.(check (pair int int)) "first" (1, 1) (a.A.Token.line, a.A.Token.col);
      Alcotest.(check (pair int int)) "second" (2, 3) (b.A.Token.line, b.A.Token.col)
  | _ -> Alcotest.fail "token count"

let test_lex_errors () =
  let expect_error src =
    match A.Lexer.tokenize src with
    | exception A.Errors.Error _ -> ()
    | _ -> Alcotest.failf "expected a lex error on %S" src
  in
  expect_error "@";
  expect_error "/* unterminated";
  expect_error "\"unterminated"

(* --- Parser: expressions --- *)

let eval src = A.Eval.expr [] (A.Parser.parse_expr src)

let test_expr_precedence () =
  Alcotest.(check (float 1e-9)) "mul before add" 14.0 (eval "2 + 3 * 4");
  Alcotest.(check (float 1e-9)) "parens" 20.0 (eval "(2 + 3) * 4");
  Alcotest.(check (float 1e-9)) "unary minus" (-6.0) (eval "-2 * 3");
  Alcotest.(check (float 1e-9)) "division" 2.5 (eval "5 / 2");
  Alcotest.(check (float 1e-9)) "power" 512.0 (eval "2 ^ 3 ^ 2");
  Alcotest.(check (float 1e-9)) "sub chain" (-4.0) (eval "1 - 2 - 3")

let test_expr_variables () =
  let e = A.Parser.parse_expr "n * esize + 1" in
  Alcotest.(check (float 1e-9)) "env" 33.0
    (A.Eval.expr [ ("n", 4.0); ("esize", 8.0) ] e);
  Alcotest.check_raises "unbound"
    (A.Errors.Error { line = 0; col = 0; message = "unbound parameter 'zz'" })
    (fun () -> ignore (A.Eval.expr [] (A.Parser.parse_expr "zz")))

let test_parse_errors_have_positions () =
  (match A.Parser.parse_file "app {" with
  | exception A.Errors.Error { line = 1; col; _ } ->
      Alcotest.(check bool) "column sensible" true (col >= 5)
  | _ -> Alcotest.fail "expected parse error");
  match A.Parser.parse_file "junk" with
  | exception A.Errors.Error { message; _ } ->
      Alcotest.(check bool) "mentions top level" true
        (String.length message > 0)
  | _ -> Alcotest.fail "expected parse error"

(* --- Full models --- *)

let vm_source =
  {|
app tiny {
  param n = 100
  data A { pattern stream(elem = 8, count = n, stride = 1) }
  data B { pattern stream(elem = 8, count = n, stride = 2, writeback) }
  flops 2 * n
}
|}

let test_compile_stream_app () =
  let file = A.Parser.parse_file vm_source in
  let app = A.Compile.find_app file "tiny" in
  Alcotest.(check int) "flops" 200 app.A.Compile.flops;
  let sizes = Access_patterns.App_spec.structure_bytes app.A.Compile.spec in
  Alcotest.(check int) "A size inferred" 800 (List.assoc "A" sizes);
  let cache = Cachesim.Config.small_verification in
  let nha =
    Access_patterns.App_spec.main_memory_accesses ~cache app.A.Compile.spec
  in
  (* A: 800 B unit stride over 32 B lines = 25; B: stride 2 -> 25 lines
     read + 25 written back. *)
  Alcotest.(check (float 0.01)) "A" 25.0 (List.assoc "A" nha);
  Alcotest.(check (float 0.01)) "B" 50.0 (List.assoc "B" nha)

let test_param_overrides () =
  let file = A.Parser.parse_file vm_source in
  let app = A.Compile.find_app ~overrides:[ ("n", 200.0) ] file "tiny" in
  Alcotest.(check int) "overridden flops" 400 app.A.Compile.flops

let test_params_can_reference_earlier_params () =
  let src = "app x { param a = 3  param b = a * 2  flops b  data D { pattern stream(elem = 8, count = b, stride = 1) } }" in
  let app = A.Compile.find_app (A.Parser.parse_file src) "x" in
  Alcotest.(check int) "b = 6" 6 app.A.Compile.flops

let test_compile_machine () =
  let file = A.Builtin_models.load () in
  let m = A.Compile.find_machine file "small_verif" in
  Alcotest.(check int) "capacity" 8192 (Cachesim.Config.capacity m.A.Compile.cache);
  Alcotest.(check (float 1e-9)) "fit" 5000.0 m.A.Compile.fit

let test_builtin_models_all_compile () =
  let file = A.Builtin_models.load () in
  Alcotest.(check int) "6 machines" 6 (List.length (A.Compile.machines file));
  Alcotest.(check int) "6 apps" 6 (List.length (A.Compile.apps file))

let test_dsl_vm_matches_ocaml_api () =
  (* The DSL's VM model and the kernel library's spec must agree
     exactly. *)
  let file = A.Builtin_models.load () in
  let app = A.Compile.find_app file "vm" in
  let cache = Cachesim.Config.profiling_4mb in
  let dsl = Access_patterns.App_spec.main_memory_accesses ~cache app.A.Compile.spec in
  let api =
    Access_patterns.App_spec.main_memory_accesses ~cache
      (Kernels.Vm.spec Kernels.Vm.profiling)
  in
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "same structure" n2 n1;
      Alcotest.(check (float 1e-6)) ("N_ha for " ^ n1) v2 v1)
    dsl api

let test_dsl_mg_template () =
  (* The builtin MG model takes its V-cycle reference streams from the
     "mg/R"/"mg/U"/"mg/V" template providers; with an 8^3 grid and a
     2-level hierarchy the expansion is small enough to check against a
     direct provider call. *)
  let file = A.Builtin_models.load () in
  let overrides = [ ("m", 8.0); ("levels", 2.0) ] in
  let app = A.Compile.find_app ~overrides file "mg" in
  let env = [ ("m", 8); ("levels", 2); ("cycles", 1) ] in
  List.iter
    (fun (s : Access_patterns.App_spec.structure) ->
      let provider_name = "mg/" ^ s.Access_patterns.App_spec.name in
      match s.Access_patterns.App_spec.pattern with
      | Some (Access_patterns.Pattern.Templated t) ->
          let provider =
            match Access_patterns.Template_provider.find provider_name with
            | Some p -> p
            | None -> Alcotest.fail (provider_name ^ " not registered")
          in
          let refs, writes = provider env in
          Alcotest.(check bool)
            (provider_name ^ " produced refs")
            true
            (Array.length refs > 0);
          Alcotest.(check int)
            (provider_name ^ " refs match the compiled template")
            (Array.length refs)
            (Array.length t.Access_patterns.Template.refs);
          Alcotest.(check bool) (provider_name ^ " has writes") true
            (writes <> None)
      | _ ->
          Alcotest.fail
            (s.Access_patterns.App_spec.name ^ " should be templated"))
    app.A.Compile.spec.Access_patterns.App_spec.structures

let test_order_composition () =
  let src =
    {|
app mini_cg {
  param n = 64
  data A { size = 8 * n * n }
  data p { size = 8 * n }
  order iterations = 3 {
    phase { A : stream(elem = 8, count = n * n, stride = 1);
            p : reuse * n }
    phase { p : stream(elem = 8, count = n, stride = 1) }
  }
}
|}
  in
  let app = A.Compile.find_app (A.Parser.parse_file src) "mini_cg" in
  let cache = Cachesim.Config.small_verification in
  let nha =
    Access_patterns.App_spec.main_memory_accesses ~cache app.A.Compile.spec
  in
  (* A is 32 KB streamed 3 times through an 8 KB cache: ~1024 lines per
     traverse. *)
  let a = List.assoc "A" nha in
  (* Cold sweep (1024 lines) plus two reuse sweeps; the occupancy-based
     reuse model keeps ~CA*NA blocks resident, so each reuse costs
     1024 - 256 +- interference. *)
  Alcotest.(check bool) (Printf.sprintf "A ~ 3 sweeps (%.0f)" a) true
    (a > 2300.0 && a < 3100.0)

let test_generator_syntax () =
  (* The pass / zip / repeat generators in concrete syntax. *)
  let src =
    {|
app gens {
  param n = 16
  data X {
    size = 8 * n * n
    pattern template(elem = 8) {
      pass(start = 0, count = n, stride = 2)
      repeat 2 {
        refs (X(1), X(3))
      }
      zip count n {
        X(0) step 2;
        X(1) step 1
      }
    }
  }
}
|}
  in
  let app = A.Compile.find_app (A.Parser.parse_file src) "gens" in
  let s = List.hd app.A.Compile.spec.Access_patterns.App_spec.structures in
  match s.Access_patterns.App_spec.pattern with
  | Some (Access_patterns.Pattern.Templated t) ->
      let refs = t.Access_patterns.Template.refs in
      (* pass: 16 refs; repeat: 2*2; zip: 2 streams x 16. *)
      Alcotest.(check int) "total refs" (16 + 4 + 32) (Array.length refs);
      Alcotest.(check int) "pass first" 0 refs.(0);
      Alcotest.(check int) "pass second" 2 refs.(1);
      Alcotest.(check int) "repeat ref" 1 refs.(16);
      Alcotest.(check int) "zip stream 1 t=0" 0 refs.(20);
      Alcotest.(check int) "zip stream 2 t=0" 1 refs.(21);
      Alcotest.(check int) "zip stream 1 t=1" 2 refs.(22)
  | _ -> Alcotest.fail "expected a template"

let test_semantic_errors () =
  let expect_error src =
    match A.Compile.apps (A.Parser.parse_file src) with
    | exception A.Errors.Error _ -> ()
    | _ -> Alcotest.failf "expected a semantic error on %s" src
  in
  (* Missing pattern argument. *)
  expect_error "app x { data D { pattern stream(elem = 8) } }";
  (* Unknown pattern argument. *)
  expect_error "app x { data D { pattern stream(elem = 8, count = 1, bogus = 2) } }";
  (* Structure with neither size nor pattern. *)
  expect_error "app x { data D { } }";
  (* reuse outside an order. *)
  expect_error "app x { data D { pattern reuse } }";
  (* Undeclared structure in a phase. *)
  expect_error
    "app x { data D { size = 8 } order { phase { E : reuse } } }"

(* Template indices are untrusted input: a negative index, or one whose
   byte offset overflows, is a structured compile error, while a sparse
   but valid index is modeled exactly. *)
let template_app refs =
  Printf.sprintf
    "app t { data X { pattern template(elem = 8) { refs (%s) } } }" refs

let test_template_index_errors () =
  let expect_message src expected =
    match A.Compile.apps (A.Parser.parse_file src) with
    | exception A.Errors.Error { message; _ } ->
        Alcotest.(check string) "message" expected message
    | _ -> Alcotest.failf "expected a compile error on %s" src
  in
  expect_message (template_app "X(0), X(0 - 5)")
    "Template.make: negative element index";
  expect_message (template_app "X(0), X(2305843009213693951)")
    "Template.make: element index too large"

(* Semantic errors carry no position (line 0) and render as the bare
   message; lexer and parser errors keep theirs. *)
let test_error_rendering () =
  Alcotest.(check (option string)) "position-less" (Some "bad index")
    (A.Errors.to_string
       (A.Errors.Error { line = 0; col = 0; message = "bad index" }));
  Alcotest.(check (option string)) "positioned"
    (Some "line 3, column 7: bad token")
    (A.Errors.to_string
       (A.Errors.Error { line = 3; col = 7; message = "bad token" }));
  Alcotest.(check (option string)) "lexer error"
    (Some "line 1, column 18: unexpected character '`'")
    (match A.Parser.parse_file "app x { data D { ` } }" with
    | exception e -> A.Errors.to_string e
    | _ -> None);
  Alcotest.(check (option string)) "other exceptions" None
    (A.Errors.to_string Not_found)

(* [dvf --model] on a model source: exit status, stdout and stderr;
   [None] when the binary is not built. *)
let run_model_cli src =
  let path = Filename.temp_file "dvf_model" ".aspen" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_text path (fun oc -> output_string oc src);
  Fixtures.run_dvf [ "--model"; path ]

(* The CLI's report of a bad template index names no "line 0". *)
let test_cli_semantic_error () =
  match run_model_cli (template_app "X(0), X(0 - 5)") with
  | None -> Alcotest.skip ()
  | Some (status, _, stderr) ->
      Alcotest.(check int) "exit status" 1 status;
      Alcotest.(check string) "stderr"
        "error: Template.make: negative element index\n" stderr

(* A model the trace cannot record fails like any other model error:
   "error: <structure>: ...", exit 1, never an uncaught exception.  A
   non-positive element size is a compile error; an element size or an
   address span a packed trace event cannot carry is refused before the
   capture, after the analytic report. *)
let stream_app data =
  Printf.sprintf "app t {\n  data X { %s }\n  flops 1\n}\n" data

let test_cli_untraceable_models () =
  let max_addr = Cachesim.Cache.max_addr in
  List.iter
    (fun (name, data, analytic, expected) ->
      match run_model_cli (stream_app data) with
      | None -> Alcotest.skip ()
      | Some (status, stdout, stderr) ->
          Alcotest.(check int) (name ^ ": exit status") 1 status;
          Alcotest.(check string) (name ^ ": stderr") expected stderr;
          Alcotest.(check bool) (name ^ ": analytic report") analytic
            (String.length stdout > 0))
    [
      ( "negative element size",
        "pattern stream(elem = 0 - 5, count = 10)",
        false,
        "error: X: Streaming.make: elem_size <= 0\n" );
      ( "element size past max_size",
        "pattern stream(elem = 2147483648, count = 10)",
        true,
        "error: X: element size 2147483648 outside the traceable 1..8191\n" );
      ( "8 TB structure",
        "size = 8 * 1024 * 1024 * 1024 * 1024 pattern stream(elem = 8, count = 10)",
        true,
        Printf.sprintf
          "error: X: 8796093022208 bytes at address 4928 end past the \
           traceable address %d\n"
          max_addr );
      ( "span ending past max_addr",
        Printf.sprintf "size = %d pattern stream(elem = 8, count = 10)"
          (max_addr - 4095),
        true,
        Printf.sprintf
          "error: X: %d bytes at address 4928 end past the traceable address \
           %d\n"
          (max_addr - 4095) max_addr );
    ]

(* A negative declared size is a compile error naming the structure, not
   an uncaught exception from the analytic report. *)
let test_cli_negative_size () =
  match run_model_cli (stream_app "size = 0 - 800 pattern stream(elem = 8, count = 10)") with
  | None -> Alcotest.skip ()
  | Some (status, stdout, stderr) ->
      Alcotest.(check int) "exit status" 1 status;
      Alcotest.(check string) "stderr"
        "error: App_spec.make: structure X has negative size -800\n" stderr;
      Alcotest.(check string) "no report" "" stdout

(* A 2 KiB element is well inside the packed range: the model verifies. *)
let test_cli_large_element_verifies () =
  match run_model_cli (stream_app "pattern stream(elem = 2048, count = 100)") with
  | None -> Alcotest.skip ()
  | Some (status, stdout, stderr) ->
      Alcotest.(check int) "exit status" 0 status;
      Alcotest.(check string) "stderr" "" stderr;
      Alcotest.(check bool) "verification rows" true
        (List.length
           (List.filter
              (fun l -> String.starts_with ~prefix:"| t " l)
              (String.split_on_char '\n' stdout))
        = 2)

(* Every in-repo model fits the packed trace event. *)
let test_builtin_models_traceable () =
  List.iter
    (fun (app : A.Compile.app) -> Core.Replay.check app.A.Compile.spec)
    (A.Compile.apps (A.Builtin_models.load ()))

let test_sparse_template_index () =
  let src = template_app "X(0), X(10^15), X(0)" in
  let app = A.Compile.find_app (A.Parser.parse_file src) "t" in
  List.iter
    (fun cache ->
      Alcotest.(check (list (pair string (float 0.0))))
        cache.Cachesim.Config.name [ ("X", 2.0) ]
        (Access_patterns.App_spec.main_memory_accesses ~cache
           app.A.Compile.spec))
    Cachesim.Config.verification_set

(* --- Pretty-printer round trip --- *)

let test_roundtrip_builtin_models () =
  let file = A.Builtin_models.load () in
  let printed = A.Pretty.to_string file in
  let reparsed = A.Parser.parse_file printed in
  Alcotest.(check int) "same decl count" (List.length file) (List.length reparsed);
  (* Semantics preserved: every app's N_ha agrees before and after. *)
  let cache = Cachesim.Config.small_verification in
  List.iter2
    (fun d1 d2 ->
      match (d1, d2) with
      | Aspen.Ast.App a1, Aspen.Ast.App a2 ->
          let n1 =
            Access_patterns.App_spec.main_memory_accesses ~cache
              (A.Compile.compile_app a1).A.Compile.spec
          in
          let n2 =
            Access_patterns.App_spec.main_memory_accesses ~cache
              (A.Compile.compile_app a2).A.Compile.spec
          in
          List.iter2
            (fun (s1, v1) (s2, v2) ->
              Alcotest.(check string) "structure" s1 s2;
              Alcotest.(check (float 1e-6)) (a1.Aspen.Ast.app_name ^ "/" ^ s1) v1 v2)
            n1 n2
      | Aspen.Ast.Machine m1, Aspen.Ast.Machine m2 ->
          Alcotest.(check string) "machine name" m1.Aspen.Ast.machine_name
            m2.Aspen.Ast.machine_name
      | _ -> Alcotest.fail "declaration order changed")
    file reparsed

let gen_expr =
  (* Depth-capped: unbounded sizes build arithmetic whose value overflows
     to infinity, and inf - inf = nan defeats any value comparison. *)
  let open QCheck.Gen in
  sized @@ fun size ->
  (fix (fun self n ->
         if n <= 0 then
           oneof
             [ map (fun i -> Aspen.Ast.Num (float_of_int i)) (int_range 0 1000);
               oneofl [ Aspen.Ast.Var "n"; Aspen.Ast.Var "k" ] ]
         else
           oneof
             [
               map2
                 (fun op (a, b) -> Aspen.Ast.Binop (op, a, b))
                 (oneofl Aspen.Ast.[ Add; Sub; Mul ])
                 (pair (self (n / 2)) (self (n / 2)));
               map (fun e -> Aspen.Ast.Neg e) (self (n - 1));
             ]))
    (min size 6)

let prop_expr_roundtrip =
  QCheck.Test.make ~count:200 ~name:"expr pretty/parse round trip"
    (QCheck.make gen_expr)
    (fun e ->
      let printed = Format.asprintf "%a" A.Pretty.pp_expr e in
      let reparsed = A.Parser.parse_expr printed in
      let env = [ ("n", 7.0); ("k", 3.0) ] in
      Dvf_util.Maths.approx_equal ~eps:1e-9 (A.Eval.expr env e)
        (A.Eval.expr env reparsed))

let suite =
  [
    Alcotest.test_case "lex punctuation" `Quick test_lex_punctuation;
    Alcotest.test_case "lex numbers" `Quick test_lex_numbers;
    Alcotest.test_case "lex identifiers" `Quick test_lex_identifiers_and_keywords;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex positions" `Quick test_lex_positions;
    Alcotest.test_case "lex errors" `Quick test_lex_errors;
    Alcotest.test_case "expression precedence" `Quick test_expr_precedence;
    Alcotest.test_case "expression variables" `Quick test_expr_variables;
    Alcotest.test_case "parse errors located" `Quick
      test_parse_errors_have_positions;
    Alcotest.test_case "compile stream app" `Quick test_compile_stream_app;
    Alcotest.test_case "param overrides" `Quick test_param_overrides;
    Alcotest.test_case "params reference params" `Quick
      test_params_can_reference_earlier_params;
    Alcotest.test_case "compile machine" `Quick test_compile_machine;
    Alcotest.test_case "builtin models compile" `Quick
      test_builtin_models_all_compile;
    Alcotest.test_case "DSL VM = OCaml API" `Quick test_dsl_vm_matches_ocaml_api;
    Alcotest.test_case "DSL MG template" `Quick test_dsl_mg_template;
    Alcotest.test_case "order composition" `Quick test_order_composition;
    Alcotest.test_case "generator syntax" `Quick test_generator_syntax;
    Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
    Alcotest.test_case "template index errors" `Quick test_template_index_errors;
    Alcotest.test_case "sparse template index" `Quick test_sparse_template_index;
    Alcotest.test_case "error rendering" `Quick test_error_rendering;
    Alcotest.test_case "CLI semantic error has no position" `Quick
      test_cli_semantic_error;
    Alcotest.test_case "CLI refuses untraceable models" `Quick
      test_cli_untraceable_models;
    Alcotest.test_case "CLI verifies a 2 KiB element" `Quick
      test_cli_large_element_verifies;
    Alcotest.test_case "builtin models are traceable" `Quick
      test_builtin_models_traceable;
    Alcotest.test_case "round trip builtin models" `Quick
      test_roundtrip_builtin_models;
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
    Alcotest.test_case "CLI rejects a negative size" `Quick
      test_cli_negative_size;
  ]
