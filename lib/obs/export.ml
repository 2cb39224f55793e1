let hist_quantiles = [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0) ]

let snapshot_line ~t r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf {|{"t":%.9g|} t);
  (* Snapshots run inside a simulation, between events, so each field is
     appended directly instead of formatted through Printf. *)
  let field name v =
    Buffer.add_string buf {|,"|};
    Buffer.add_string buf name;
    Buffer.add_string buf {|":|};
    Buffer.add_string buf (string_of_int v)
  in
  List.iter
    (fun (name, m) ->
      match m with
      | Registry.Counter c -> field name (Registry.value c)
      | Registry.Gauge g -> field name (Registry.gauge_value g)
      | Registry.Probe f -> field name (f ())
      | Registry.Histogram h ->
        field (name ^ "/count") (Registry.h_count h);
        field (name ^ "/sum") (Registry.h_sum h);
        List.iter
          (fun (label, q) ->
            field (name ^ "/" ^ label) (Registry.h_quantile h q))
          hist_quantiles)
    (Registry.metrics r);
  Buffer.add_char buf '}';
  Buffer.contents buf

let mangle name =
  let b = Bytes.of_string ("kar_" ^ name) in
  Bytes.iteri
    (fun i c -> if c = '/' || c = '-' || c = '.' then Bytes.set b i '_')
    b;
  Bytes.to_string b

let prometheus r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      let p = mangle name in
      match m with
      | Registry.Counter c ->
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s counter\n%s %d\n" p p (Registry.value c))
      | Registry.Gauge g ->
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s gauge\n%s %d\n" p p (Registry.gauge_value g))
      | Registry.Probe f ->
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s gauge\n%s %d\n" p p (f ()))
      | Registry.Histogram h ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" p);
        let cum = ref 0 in
        for b = 0 to Registry.n_buckets - 1 do
          let count_b = Registry.h_bucket h b in
          if count_b > 0 then begin
            cum := !cum + count_b;
            let _, hi = Registry.bucket_bounds b in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" p hi !cum)
          end
        done;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n"
             p (Registry.h_count h) p (Registry.h_sum h) p (Registry.h_count h)))
    (Registry.metrics r);
  Buffer.contents buf

let summary r =
  let scalars = ref [] and hists = ref [] in
  List.iter
    (fun (name, m) ->
      match m with
      | Registry.Counter c ->
        scalars := (name, string_of_int (Registry.value c)) :: !scalars
      | Registry.Gauge g ->
        scalars := (name, string_of_int (Registry.gauge_value g)) :: !scalars
      | Registry.Probe f -> scalars := (name, string_of_int (f ())) :: !scalars
      | Registry.Histogram h -> hists := (name, h) :: !hists)
    (Registry.metrics r);
  let buf = Buffer.create 1024 in
  (match List.rev !scalars with
   | [] -> ()
   | kv -> Buffer.add_string buf (Util.Texttab.render_kv kv));
  List.iter
    (fun (name, h) ->
      let count = Registry.h_count h in
      Buffer.add_string buf
        (Printf.sprintf "%s: count=%d p50=%d p95=%d p99=%d\n" name count
           (Registry.h_quantile h 50.0) (Registry.h_quantile h 95.0)
           (Registry.h_quantile h 99.0));
      if count > 0 then begin
        (* sparkline over the occupied bucket range *)
        let lo = ref max_int and hi = ref (-1) in
        for b = 0 to Registry.n_buckets - 1 do
          if Registry.h_bucket h b > 0 then begin
            if b < !lo then lo := b;
            if b > !hi then hi := b
          end
        done;
        let vals = ref [] in
        for b = !hi downto !lo do
          vals := float_of_int (Registry.h_bucket h b) :: !vals
        done;
        let lo_v = if !lo = 0 then 0 else fst (Registry.bucket_bounds !lo) in
        let hi_v = snd (Registry.bucket_bounds !hi) in
        Buffer.add_string buf
          (Printf.sprintf "  [%d..%d] %s\n" lo_v hi_v
             (Util.Texttab.spark !vals))
      end)
    (List.rev !hists);
  Buffer.contents buf
