(* The compiler's output, pinned. Every cell of 8 programs (Table I plus
   the Fig. 1 dot product) x 3 machines x {O1, O2, O3, O4, O4-full} x
   {Vnone, Vfull} compiles to a digest of what the compile hands its
   callers: the RTL text, the diagnostics, the translation-validation
   counters and the guard counts. A speedup that changes any of them
   changes a digest here. After an intended change of the output, the
   test's failure lists every changed cell with its new digest. *)

module W = Mac_workloads.Workloads
module Machine = Mac_machine.Machine
module Pipeline = Mac_vpo.Pipeline
module Tvalid = Mac_verify.Tvalid
module Diagnostic = Mac_verify.Diagnostic

type config = Level of Pipeline.level | O4_full

let config_name = function
  | Level l -> Pipeline.level_to_string l
  | O4_full -> "O4-full"

let cells =
  List.concat_map
    (fun (p : W.t) ->
      List.concat_map
        (fun (m : Machine.t) ->
          List.concat_map
            (fun c -> List.map (fun v -> (p, m, c, v)) Pipeline.[ Vnone; Vfull ])
            (List.map (fun l -> Level l) Pipeline.[ O1; O2; O3; O4 ] @ [ O4_full ]))
        Machine.[ alpha; mc88100; mc68030 ])
    (W.dotproduct :: W.all)

let cell_name ((p : W.t), (m : Machine.t), c, v) =
  Printf.sprintf "%s/%s/%s/%s" p.name m.name (config_name c)
    (Pipeline.verify_level_to_string v)

let compile ((p : W.t), m, c, verify) =
  let cfg =
    match c with
    | Level level -> Pipeline.config ~level ~verify m
    | O4_full ->
      Pipeline.config ~level:Pipeline.O4 ~verify ~strength_reduce:true
        ~schedule:true ~pipeline_sched:true ~regalloc:32 m
  in
  Pipeline.compile_source cfg p.source

(* Everything but the timings. *)
let fingerprint (c : Pipeline.compiled) =
  let b = Buffer.create 4096 in
  List.iter (fun f -> Buffer.add_string b (Mac_rtl.Func.to_string f)) c.funcs;
  List.iter
    (fun (fname, ds) ->
      Printf.bprintf b "diags %s\n" fname;
      List.iter
        (fun d -> Printf.bprintf b "%s\n" (Fmt.str "%a" Diagnostic.pp d))
        ds)
    c.diags;
  List.iter
    (fun (pass, (a : Tvalid.agg)) ->
      Printf.bprintf b "tvalid %s %d %d %d %d %d %d %s\n" pass a.runs a.blocks
        a.skipped a.regions a.fallbacks a.replays
        (Option.value a.fallback_reason ~default:"-"))
    c.tvalid_stats;
  Printf.bprintf b "guards %d %d\n" c.guards_emitted c.guards_elided;
  List.iter (fun (r, n) -> Printf.bprintf b "elided %s %d\n" r n)
    c.elision_reasons;
  Buffer.contents b

let digest cell =
  match compile cell with
  | c -> Digest.to_hex (Digest.string (fingerprint c))
  | exception e -> "raised " ^ Printexc.to_string e

let expected =
  [
    ("dotproduct/alpha/O1/none", "4d3c84c1daa6c9b095d673b9bdcc34ed");
    ("dotproduct/alpha/O1/full", "4c273df06c2f587a0fd0a475940955c7");
    ("dotproduct/alpha/O2/none", "183e2ded8008f94b4da4db7006cbdcc0");
    ("dotproduct/alpha/O2/full", "bde706ef5672c7fcee2730fae94f1afa");
    ("dotproduct/alpha/O3/none", "0bfc3d78d1870bdd04609317964ed30c");
    ("dotproduct/alpha/O3/full", "3f43e5c61b259cbf471c640b8440766f");
    ("dotproduct/alpha/O4/none", "0bfc3d78d1870bdd04609317964ed30c");
    ("dotproduct/alpha/O4/full", "3f43e5c61b259cbf471c640b8440766f");
    ("dotproduct/alpha/O4-full/none", "79acd8a3d6133f27a6323a643288547d");
    ("dotproduct/alpha/O4-full/full", "805a88c0fcc4aa3c925615d014d81702");
    ("dotproduct/mc88100/O1/none", "5bb439b5023dd8d7d53ac16bbde34557");
    ("dotproduct/mc88100/O1/full", "b2002a5a63024ddda861f71865dfb38d");
    ("dotproduct/mc88100/O2/none", "016a0e6593555c8ae8b2a0127fe1b9d6");
    ("dotproduct/mc88100/O2/full", "b573ace95d559799f06e26a2aed13d4c");
    ("dotproduct/mc88100/O3/none", "016a0e6593555c8ae8b2a0127fe1b9d6");
    ("dotproduct/mc88100/O3/full", "b573ace95d559799f06e26a2aed13d4c");
    ("dotproduct/mc88100/O4/none", "016a0e6593555c8ae8b2a0127fe1b9d6");
    ("dotproduct/mc88100/O4/full", "b573ace95d559799f06e26a2aed13d4c");
    ("dotproduct/mc88100/O4-full/none", "e5a51871adac2e606998880ade546845");
    ("dotproduct/mc88100/O4-full/full", "11f82a57ac1f88c03623e9dd05a56076");
    ("dotproduct/mc68030/O1/none", "5bb439b5023dd8d7d53ac16bbde34557");
    ("dotproduct/mc68030/O1/full", "b2002a5a63024ddda861f71865dfb38d");
    ("dotproduct/mc68030/O2/none", "016a0e6593555c8ae8b2a0127fe1b9d6");
    ("dotproduct/mc68030/O2/full", "b573ace95d559799f06e26a2aed13d4c");
    ("dotproduct/mc68030/O3/none", "016a0e6593555c8ae8b2a0127fe1b9d6");
    ("dotproduct/mc68030/O3/full", "b573ace95d559799f06e26a2aed13d4c");
    ("dotproduct/mc68030/O4/none", "016a0e6593555c8ae8b2a0127fe1b9d6");
    ("dotproduct/mc68030/O4/full", "b573ace95d559799f06e26a2aed13d4c");
    ("dotproduct/mc68030/O4-full/none", "8ed9c72986a18fbea6e1c3c66e75ad37");
    ("dotproduct/mc68030/O4-full/full", "36f6d9de2fef26d00ab6a4ba65825ba3");
    ("convolution/alpha/O1/none", "4e64a6e75692d1023cbdac6a0a5a5fcb");
    ("convolution/alpha/O1/full", "4d20920a8c043b6e8ebeadc9b12a84f1");
    ("convolution/alpha/O2/none", "c75181157ea9a9c79cd79a49606419e8");
    ("convolution/alpha/O2/full", "01512903caf1e66aef15c7fb323b4edb");
    ("convolution/alpha/O3/none", "7ed3662334ccc4af8b17d1d5ac283f06");
    ("convolution/alpha/O3/full", "68b2cfe1f4122c0aef3d8aeaa54b3f12");
    ("convolution/alpha/O4/none", "c0afa1f6cd4c7dfffed887f377d6b9bc");
    ("convolution/alpha/O4/full", "c31e0d26384b8e8d748d2376c11c2ce7");
    ("convolution/alpha/O4-full/none", "a847f9536ee67cfe85ebd1050a2f4e95");
    ("convolution/alpha/O4-full/full", "fa66bbe072bc61be4c1d01039cb08519");
    ("convolution/mc88100/O1/none", "a2ad41d775d2c863cc80f5a46aa48f5e");
    ("convolution/mc88100/O1/full", "b176ec3930a27a729d1df950c01aa9e1");
    ("convolution/mc88100/O2/none", "47d5dd5e84250c0136c062e5f03033db");
    ("convolution/mc88100/O2/full", "d4fee9c91f3f750ad5083fe92c479521");
    ("convolution/mc88100/O3/none", "fcdae092d39a49377022cca28665130d");
    ("convolution/mc88100/O3/full", "0905ecf437e250bfdfc790e41bc7b700");
    ("convolution/mc88100/O4/none", "57b7364a3a6d721ad7fe5dfebf5a8615");
    ("convolution/mc88100/O4/full", "3eb221501987d82751eb3a42dd5eb73f");
    ("convolution/mc88100/O4-full/none", "39ffaeefc29b381f6f5f9c7a9154548e");
    ("convolution/mc88100/O4-full/full", "4b55b64a7720451478ac2375a62ec7f0");
    ("convolution/mc68030/O1/none", "a2ad41d775d2c863cc80f5a46aa48f5e");
    ("convolution/mc68030/O1/full", "b176ec3930a27a729d1df950c01aa9e1");
    ("convolution/mc68030/O2/none", "a2ad41d775d2c863cc80f5a46aa48f5e");
    ("convolution/mc68030/O2/full", "b176ec3930a27a729d1df950c01aa9e1");
    ("convolution/mc68030/O3/none", "a2ad41d775d2c863cc80f5a46aa48f5e");
    ("convolution/mc68030/O3/full", "b176ec3930a27a729d1df950c01aa9e1");
    ("convolution/mc68030/O4/none", "a2ad41d775d2c863cc80f5a46aa48f5e");
    ("convolution/mc68030/O4/full", "b176ec3930a27a729d1df950c01aa9e1");
    ("convolution/mc68030/O4-full/none", "7e12dcd1465955f91abd53697e18e428");
    ("convolution/mc68030/O4-full/full", "113ae3080566d79ad4d34e3870e82d7b");
    ("image_add/alpha/O1/none", "eacac5e6eaccd2400fa1b1ca849b61b1");
    ("image_add/alpha/O1/full", "5e68f7bd3503be9cce1bf096157018c4");
    ("image_add/alpha/O2/none", "2598214fe6f7cc5b84cf455627778a1e");
    ("image_add/alpha/O2/full", "6ec59d0cb054b7c5424d658362629ee3");
    ("image_add/alpha/O3/none", "310eee1ecca7cf3b92df6fffe24e37d7");
    ("image_add/alpha/O3/full", "662c308f5ab832e66de2c519540ee1f8");
    ("image_add/alpha/O4/none", "951253800e83acf8a3baafcb8f02fd32");
    ("image_add/alpha/O4/full", "6a690f8e5196eab9c63e51e9530d74e5");
    ("image_add/alpha/O4-full/none", "75e68d6b7a3b9590098ceeb4a5ecfb90");
    ("image_add/alpha/O4-full/full", "476f0660a08db092956841f82727fd61");
    ("image_add/mc88100/O1/none", "31fd440aaaf97a96ab131ce082ca1d4a");
    ("image_add/mc88100/O1/full", "e12c28cb33954c655109c3f5294e4370");
    ("image_add/mc88100/O2/none", "242411e72c8bd7159b8890d96c56cd39");
    ("image_add/mc88100/O2/full", "18b0aca273633341ae5d6224f4edbacb");
    ("image_add/mc88100/O3/none", "99aeaf66317d18d93511c11e6a041b3a");
    ("image_add/mc88100/O3/full", "3c6876f466ad4a48a1f0393dab64c6c9");
    ("image_add/mc88100/O4/none", "21bd4ff87a502a27e91fa426bbcf14bc");
    ("image_add/mc88100/O4/full", "480c7c7811d4787067af61c641d7302e");
    ("image_add/mc88100/O4-full/none", "1d25a3946e17d12a30af7b004e4cf1cb");
    ("image_add/mc88100/O4-full/full", "d252ff4cb1aba926adf6d278190d3a84");
    ("image_add/mc68030/O1/none", "31fd440aaaf97a96ab131ce082ca1d4a");
    ("image_add/mc68030/O1/full", "e12c28cb33954c655109c3f5294e4370");
    ("image_add/mc68030/O2/none", "242411e72c8bd7159b8890d96c56cd39");
    ("image_add/mc68030/O2/full", "18b0aca273633341ae5d6224f4edbacb");
    ("image_add/mc68030/O3/none", "242411e72c8bd7159b8890d96c56cd39");
    ("image_add/mc68030/O3/full", "18b0aca273633341ae5d6224f4edbacb");
    ("image_add/mc68030/O4/none", "242411e72c8bd7159b8890d96c56cd39");
    ("image_add/mc68030/O4/full", "18b0aca273633341ae5d6224f4edbacb");
    ("image_add/mc68030/O4-full/none", "bc170f761c5d42eff6b51412b7e460b1");
    ("image_add/mc68030/O4-full/full", "6249e9ac1c498a297c162acc86efceb6");
    ("image_add16/alpha/O1/none", "917ad1ac97c365f08308ad71b44cbc42");
    ("image_add16/alpha/O1/full", "622b1cf0e4ca0c26a7459f00efd43dd4");
    ("image_add16/alpha/O2/none", "c1e17598b58454595c7197a00f07fcb2");
    ("image_add16/alpha/O2/full", "0e0203c886e92b74817f9a2e7e88a609");
    ("image_add16/alpha/O3/none", "eecc078edd7684bf0a351e4e51ee44d1");
    ("image_add16/alpha/O3/full", "0da7fc0b16d5b8d798b6321658165dab");
    ("image_add16/alpha/O4/none", "1f21ae98912d401111bf93488ee702a2");
    ("image_add16/alpha/O4/full", "1c4a5915f266ce972daed1000c24fa96");
    ("image_add16/alpha/O4-full/none", "867b4a6a13726965f11fbf5b26772ca2");
    ("image_add16/alpha/O4-full/full", "366c69d54b03650fb9a5c57746a1f3db");
    ("image_add16/mc88100/O1/none", "5c8e31f4aa5def37425dcecebbae6e3c");
    ("image_add16/mc88100/O1/full", "bc309c83828a52f2122b9f49457a3294");
    ("image_add16/mc88100/O2/none", "e713fb21e06067bb3e5849f3055e5379");
    ("image_add16/mc88100/O2/full", "2e77fac154dc8a5d26e81b5b99346975");
    ("image_add16/mc88100/O3/none", "e713fb21e06067bb3e5849f3055e5379");
    ("image_add16/mc88100/O3/full", "2e77fac154dc8a5d26e81b5b99346975");
    ("image_add16/mc88100/O4/none", "e713fb21e06067bb3e5849f3055e5379");
    ("image_add16/mc88100/O4/full", "2e77fac154dc8a5d26e81b5b99346975");
    ("image_add16/mc88100/O4-full/none", "a8dd7514ff5ddb063d819e3f23602d23");
    ("image_add16/mc88100/O4-full/full", "1b63d4817d4c05c1134dc9341bc7fe71");
    ("image_add16/mc68030/O1/none", "5c8e31f4aa5def37425dcecebbae6e3c");
    ("image_add16/mc68030/O1/full", "bc309c83828a52f2122b9f49457a3294");
    ("image_add16/mc68030/O2/none", "e713fb21e06067bb3e5849f3055e5379");
    ("image_add16/mc68030/O2/full", "2e77fac154dc8a5d26e81b5b99346975");
    ("image_add16/mc68030/O3/none", "e713fb21e06067bb3e5849f3055e5379");
    ("image_add16/mc68030/O3/full", "2e77fac154dc8a5d26e81b5b99346975");
    ("image_add16/mc68030/O4/none", "e713fb21e06067bb3e5849f3055e5379");
    ("image_add16/mc68030/O4/full", "2e77fac154dc8a5d26e81b5b99346975");
    ("image_add16/mc68030/O4-full/none", "b0b6b184ab479158149623b6dc5098d8");
    ("image_add16/mc68030/O4-full/full", "765c9c71922e9f7bcb9f4ca608ab901c");
    ("image_xor/alpha/O1/none", "76ea152bcc843415d7667041d73047a9");
    ("image_xor/alpha/O1/full", "5287a3510c7a87e3e84211852f7aa56c");
    ("image_xor/alpha/O2/none", "cfa0b5f1a5e486f87038cc5e1cb83123");
    ("image_xor/alpha/O2/full", "72a362470e9a1c2c63283961661c4bf1");
    ("image_xor/alpha/O3/none", "47138ede393ccdebbe6b45b220fa8e91");
    ("image_xor/alpha/O3/full", "dc3b08eadeae3ed5962327fdfd6af0d6");
    ("image_xor/alpha/O4/none", "a93f9666d2e900654e8226fe2a614a18");
    ("image_xor/alpha/O4/full", "1e2614e528ac3a31d5cc6930144615dd");
    ("image_xor/alpha/O4-full/none", "6abf3f0914efd144ba46479419dae8f6");
    ("image_xor/alpha/O4-full/full", "e7fadac616e47b8da047abdd08d5b266");
    ("image_xor/mc88100/O1/none", "e679984ce721b6d6ddff756de97fbd18");
    ("image_xor/mc88100/O1/full", "e3f6529c6362cb872ce7b7fcc0649cc0");
    ("image_xor/mc88100/O2/none", "871774faf5692ec38fe54f44d22005e0");
    ("image_xor/mc88100/O2/full", "afe95fd0686f29b4a4ef12e3ee7ce5af");
    ("image_xor/mc88100/O3/none", "5b06223374ef14365fb6374d851d46cc");
    ("image_xor/mc88100/O3/full", "fe9d2fe37ed20528e0813853ffbb6fd1");
    ("image_xor/mc88100/O4/none", "fef1f18a3e22cc65bf2e53a423cdc75e");
    ("image_xor/mc88100/O4/full", "112a6321315c40e302017ede8934c6dc");
    ("image_xor/mc88100/O4-full/none", "e66753617e16eff4a157c0c2060072ae");
    ("image_xor/mc88100/O4-full/full", "13f99afda9cbd5066272ae4a4ecfcd0b");
    ("image_xor/mc68030/O1/none", "e679984ce721b6d6ddff756de97fbd18");
    ("image_xor/mc68030/O1/full", "e3f6529c6362cb872ce7b7fcc0649cc0");
    ("image_xor/mc68030/O2/none", "871774faf5692ec38fe54f44d22005e0");
    ("image_xor/mc68030/O2/full", "afe95fd0686f29b4a4ef12e3ee7ce5af");
    ("image_xor/mc68030/O3/none", "871774faf5692ec38fe54f44d22005e0");
    ("image_xor/mc68030/O3/full", "afe95fd0686f29b4a4ef12e3ee7ce5af");
    ("image_xor/mc68030/O4/none", "871774faf5692ec38fe54f44d22005e0");
    ("image_xor/mc68030/O4/full", "afe95fd0686f29b4a4ef12e3ee7ce5af");
    ("image_xor/mc68030/O4-full/none", "396de17bee516bcdc664cb9f3bcef638");
    ("image_xor/mc68030/O4-full/full", "edb2130a2a55d31700d046af891fe769");
    ("translate/alpha/O1/none", "007834666c8467b017dbd064897cc217");
    ("translate/alpha/O1/full", "78b60dcf0f35fda0eb786bd689138500");
    ("translate/alpha/O2/none", "4c665b19bd251c06fbb336dc7f2ff9f3");
    ("translate/alpha/O2/full", "6ed5d098d9eb1dfd60976f6a9d6a256e");
    ("translate/alpha/O3/none", "c3cff553fd3aadf6ff83a7473e5d313a");
    ("translate/alpha/O3/full", "ba99e2be5d1166a00790e31ffac9c7f1");
    ("translate/alpha/O4/none", "3062713601a721a8cb41bde4e02f6d95");
    ("translate/alpha/O4/full", "119d826c94a944ea618aa0fe254caa54");
    ("translate/alpha/O4-full/none", "62c3241dac543ddc4b9faef139559146");
    ("translate/alpha/O4-full/full", "97309113f0d67e71422af998d994abd4");
    ("translate/mc88100/O1/none", "a6b0312abb7758870455a2b4a78daae6");
    ("translate/mc88100/O1/full", "b80250eb73322a9889a45d76ef80129c");
    ("translate/mc88100/O2/none", "6f03e457c1c7789a8de42d68ea5c589e");
    ("translate/mc88100/O2/full", "c5118423a2cb9b3a5df927f6d890d0b2");
    ("translate/mc88100/O3/none", "9be57aee226ad9513c90c077bac7ca15");
    ("translate/mc88100/O3/full", "aa247d67400c446e316104f22dda7534");
    ("translate/mc88100/O4/none", "79db7ef588d4f1d74f5c385bf4b0c4a3");
    ("translate/mc88100/O4/full", "f97dea40cd4413b5bc2bf4090fe84b93");
    ("translate/mc88100/O4-full/none", "8612df5767fa69e2384abb903370fea1");
    ("translate/mc88100/O4-full/full", "1247f7972268cf2bb8056abc45243890");
    ("translate/mc68030/O1/none", "a6b0312abb7758870455a2b4a78daae6");
    ("translate/mc68030/O1/full", "b80250eb73322a9889a45d76ef80129c");
    ("translate/mc68030/O2/none", "6f03e457c1c7789a8de42d68ea5c589e");
    ("translate/mc68030/O2/full", "c5118423a2cb9b3a5df927f6d890d0b2");
    ("translate/mc68030/O3/none", "6f03e457c1c7789a8de42d68ea5c589e");
    ("translate/mc68030/O3/full", "c5118423a2cb9b3a5df927f6d890d0b2");
    ("translate/mc68030/O4/none", "6f03e457c1c7789a8de42d68ea5c589e");
    ("translate/mc68030/O4/full", "c5118423a2cb9b3a5df927f6d890d0b2");
    ("translate/mc68030/O4-full/none", "7f01a227dd7d2ff25043c35a123099af");
    ("translate/mc68030/O4-full/full", "5ea8006a1791acbc0818aec4c795478a");
    ("eqntott/alpha/O1/none", "7e02672c4713e4c5ed382390ee8c567f");
    ("eqntott/alpha/O1/full", "2a3f7781ee9697ce19862f5e52996a2d");
    ("eqntott/alpha/O2/none", "133dbcbb1f60dfca46deb17da405d5f1");
    ("eqntott/alpha/O2/full", "e6019a29c031dd8d3c177ede7646f92c");
    ("eqntott/alpha/O3/none", "a3e29322b8edd31ce24036a8aecad07d");
    ("eqntott/alpha/O3/full", "eaef99fcce43985cd9e49a1e411213c5");
    ("eqntott/alpha/O4/none", "e498627db4feac17eca7ac8295299f9b");
    ("eqntott/alpha/O4/full", "1f2b7f2cdc79cb0871d25ab50a022176");
    ("eqntott/alpha/O4-full/none", "a37d4c5847d24caf10170296dd161b1f");
    ("eqntott/alpha/O4-full/full", "9ab1c60385cf53d57c69507b4c67cf29");
    ("eqntott/mc88100/O1/none", "22036e67bda18e5d8859499e0e5aefe5");
    ("eqntott/mc88100/O1/full", "994e442ae0df427b9bc84c23896227f5");
    ("eqntott/mc88100/O2/none", "d8bbf03fdeaf7774aeef83d2b8fcb2d9");
    ("eqntott/mc88100/O2/full", "67a90b2e78923f39b97619fd3a3078f2");
    ("eqntott/mc88100/O3/none", "d8bbf03fdeaf7774aeef83d2b8fcb2d9");
    ("eqntott/mc88100/O3/full", "67a90b2e78923f39b97619fd3a3078f2");
    ("eqntott/mc88100/O4/none", "d8bbf03fdeaf7774aeef83d2b8fcb2d9");
    ("eqntott/mc88100/O4/full", "67a90b2e78923f39b97619fd3a3078f2");
    ("eqntott/mc88100/O4-full/none", "bd18e3e1b9e2b65bd37354fc6ada5a69");
    ("eqntott/mc88100/O4-full/full", "54559e60bbd1acfebc3afdf567d41fba");
    ("eqntott/mc68030/O1/none", "22036e67bda18e5d8859499e0e5aefe5");
    ("eqntott/mc68030/O1/full", "994e442ae0df427b9bc84c23896227f5");
    ("eqntott/mc68030/O2/none", "d8bbf03fdeaf7774aeef83d2b8fcb2d9");
    ("eqntott/mc68030/O2/full", "67a90b2e78923f39b97619fd3a3078f2");
    ("eqntott/mc68030/O3/none", "d8bbf03fdeaf7774aeef83d2b8fcb2d9");
    ("eqntott/mc68030/O3/full", "67a90b2e78923f39b97619fd3a3078f2");
    ("eqntott/mc68030/O4/none", "d8bbf03fdeaf7774aeef83d2b8fcb2d9");
    ("eqntott/mc68030/O4/full", "67a90b2e78923f39b97619fd3a3078f2");
    ("eqntott/mc68030/O4-full/none", "01add7655a34cfc69d8194c9c0867fa8");
    ("eqntott/mc68030/O4-full/full", "93889269a581b84febc924fcd7b63381");
    ("mirror/alpha/O1/none", "5373d344d93c13f2519dfc5e68be2c61");
    ("mirror/alpha/O1/full", "75cd8a60bc05de8b3ddc5f0caf6b4bf3");
    ("mirror/alpha/O2/none", "b589b5b644d4d8cf96c366038ad08dac");
    ("mirror/alpha/O2/full", "c4f61a94db1d65fda9d08a1607835f1f");
    ("mirror/alpha/O3/none", "6b0b0e086758e6277c4b3c98fdc36ca4");
    ("mirror/alpha/O3/full", "884d180fea8da502a3fc5ebce2bd5826");
    ("mirror/alpha/O4/none", "a8f6c74be5c41073bac09c45f8d3af01");
    ("mirror/alpha/O4/full", "2cdd25b2b762537d0596a87e3e020dce");
    ("mirror/alpha/O4-full/none", "8d13ad75aa1ddfcb9b30f209eb485ff8");
    ("mirror/alpha/O4-full/full", "a16ffbe4eed5287c9c6e91fafce9429f");
    ("mirror/mc88100/O1/none", "eb8e4121ab5609c017d2acc86a037df6");
    ("mirror/mc88100/O1/full", "ce5aa635bf2148060b107aea5e95d267");
    ("mirror/mc88100/O2/none", "f7b26cdd8d6d4d469a35acf6e10eeda8");
    ("mirror/mc88100/O2/full", "a101973d3bac3fce5c856a2d693cc882");
    ("mirror/mc88100/O3/none", "3434a9259e3be547b28b5c2a59b098dc");
    ("mirror/mc88100/O3/full", "544b477e5e896d708bad7a71b01597e8");
    ("mirror/mc88100/O4/none", "3ea3e5bc343cbc701a7205f6a1a494c6");
    ("mirror/mc88100/O4/full", "e1628f6416146f7fab7a460e9a1d3f9a");
    ("mirror/mc88100/O4-full/none", "65395881aa617876ae453721d342b3cd");
    ("mirror/mc88100/O4-full/full", "db36a9276ff9ead84fddebaa4640dd2f");
    ("mirror/mc68030/O1/none", "eb8e4121ab5609c017d2acc86a037df6");
    ("mirror/mc68030/O1/full", "ce5aa635bf2148060b107aea5e95d267");
    ("mirror/mc68030/O2/none", "f7b26cdd8d6d4d469a35acf6e10eeda8");
    ("mirror/mc68030/O2/full", "a101973d3bac3fce5c856a2d693cc882");
    ("mirror/mc68030/O3/none", "f7b26cdd8d6d4d469a35acf6e10eeda8");
    ("mirror/mc68030/O3/full", "a101973d3bac3fce5c856a2d693cc882");
    ("mirror/mc68030/O4/none", "f7b26cdd8d6d4d469a35acf6e10eeda8");
    ("mirror/mc68030/O4/full", "a101973d3bac3fce5c856a2d693cc882");
    ("mirror/mc68030/O4-full/none", "60a6ef8204e5105dc57193582f4c8315");
    ("mirror/mc68030/O4-full/full", "f3c7045b1c9a0e254841a00b356cc1e2");
  ]
