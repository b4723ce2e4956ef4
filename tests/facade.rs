//! The `uhscm` facade must re-export every subsystem under stable paths.

#[test]
fn all_subsystems_reachable_through_facade() {
    // linalg
    let m = uhscm::linalg::Matrix::identity(3);
    assert_eq!(m.shape(), (3, 3));
    // nn
    let mut rng = uhscm::linalg::rng::seeded(1);
    let mlp = uhscm::nn::Mlp::hashing_network(4, &[3], 2, &mut rng);
    assert_eq!(mlp.output_dim(), 2);
    // data
    assert_eq!(uhscm::data::vocab::NUS_WIDE_81.len(), 81);
    // vlp
    let clip = uhscm::vlp::SimClip::with_defaults(8, 1);
    assert_eq!(clip.latent_dim(), 8);
    // eval
    let codes = uhscm::eval::BitCodes::from_real(&uhscm::linalg::Matrix::full(1, 4, 1.0));
    assert_eq!(codes.bits(), 4);
    // core
    let cfg = uhscm::core::UhscmConfig::default();
    assert!(cfg.validate().is_ok());
    // baselines
    assert_eq!(uhscm::baselines::BaselineKind::ALL.len(), 10);
    // serve: query code 1 is 0 bits from itself and 1 bit from code 0.
    let two = uhscm::eval::BitCodes::from_bools(&[vec![true, false], vec![false, false]]);
    let index = uhscm::serve::ShardedIndex::new(&two, 2);
    assert_eq!(index.search(&two, 1, 2), vec![(0, 1), (1, 0)]);
    // store: an in-memory round trip
    let mut buf = Vec::new();
    let mut writer = uhscm::store::StoreWriter::new(std::io::Cursor::new(&mut buf), 2).unwrap();
    writer.append(&two).unwrap();
    assert_eq!(writer.finish().unwrap().codes, 2);
    let reader = uhscm::store::StoreReader::new(buf.as_slice()).unwrap();
    assert_eq!(reader.read_all().unwrap(), two);
    // obs: a span is an inert guard unless tracing is on
    let _span = uhscm::obs::span("facade");
}

#[test]
fn readme_style_pipeline_compiles_and_runs() {
    use uhscm::core::pipeline::{Pipeline, SimilaritySource};
    use uhscm::core::UhscmConfig;
    use uhscm::data::{Dataset, DatasetConfig, DatasetKind};

    let dataset = Dataset::generate(DatasetKind::Cifar10Like, &DatasetConfig::tiny(), 42);
    let pipeline = Pipeline::new(&dataset, 7);
    let config = UhscmConfig { bits: 16, epochs: 2, ..UhscmConfig::for_dataset(dataset.kind) };
    let model = pipeline.train(&SimilaritySource::default(), &config);
    let codes = model.encode(&pipeline.features_of(&dataset.split.query));
    assert_eq!(codes.bits(), 16);
    assert_eq!(codes.len(), dataset.split.query.len());
}
