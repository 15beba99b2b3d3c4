//! Reports and configurations serialize: the data-plumbing contract for
//! downstream tooling (dashboards, sweep scripts).

use picocube::node::{AppBoard, NodeConfig, StackBuilder};
use picocube::sim::SimDuration;
use picocube::units::json::{FromJson, Json, ToJson};

#[test]
fn node_report_round_trips_through_json() {
    let mut node = StackBuilder::new(NodeConfig::default())
        .app(AppBoard::Tpms)
        .build()
        .unwrap();
    node.run_for(SimDuration::from_secs(13));
    let report = node.report();
    let json = report.to_json().to_string();
    let back = picocube::node::NodeReport::from_json(&Json::parse(&json).expect("parses"))
        .expect("report deserializes");
    assert_eq!(back.wakes, report.wakes);
    assert_eq!(back.packets, report.packets);
    assert_eq!(back.average_power, report.average_power);
    assert_eq!(back.power.rails.len(), report.power.rails.len());
}

#[test]
fn node_config_round_trips_through_json() {
    let config = NodeConfig {
        alarm_threshold_kpa: Some(180.0),
        wakeup_receiver: true,
        wake_interval_ppm: -125.0,
        ..NodeConfig::default()
    };
    let json = config.to_json().to_string();
    let back =
        NodeConfig::from_json(&Json::parse(&json).expect("parses")).expect("config deserializes");
    assert_eq!(back, config);
}

#[test]
fn traces_export_parseable_csv() {
    let mut node = StackBuilder::new(NodeConfig::default())
        .app(AppBoard::Tpms)
        .build()
        .unwrap();
    node.run_for(SimDuration::from_secs(13));
    let csv = node.power_trace().as_scalar().to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("time_s,node_power_w"));
    for line in lines {
        let (t, v) = line.split_once(',').expect("two columns");
        t.parse::<f64>().expect("numeric time");
        v.parse::<f64>().expect("numeric power");
    }
}
